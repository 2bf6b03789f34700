"""The JSON instance schema: parsing with path diagnostics, and lossless,
order-normalizing serialization with 1-based vertex labels."""
from __future__ import annotations

import json
from dataclasses import dataclass

from .core import GENERAL, PARTITE, Edge, Family, GroundSet, Hypergraph
from .errors import InputError


@dataclass(frozen=True)
class Instance:
    """A ground-set descriptor plus one hypergraph per family member.

    A member given as an edge list is validated into a Hypergraph here; the
    parser hands over members it has already validated. Edges are 0-based
    internally; the dict/JSON form is 1-based and emits edges in
    lexicographic order, which is a Hypergraph's edge order.
    """

    ground: GroundSet
    families: tuple[Hypergraph, ...]

    def __post_init__(self) -> None:
        members = tuple(m if isinstance(m, Hypergraph) else Hypergraph(self.ground, m)
                        for m in self.families)
        if any(m.ground != self.ground for m in members):
            raise InputError("instance members must lie on the instance's ground")
        object.__setattr__(self, "families", members)

    @classmethod
    def from_family(cls, family: Family) -> "Instance":
        return cls(family.ground, family.members)

    def to_family(self) -> Family:
        return Family(self.families)

    def to_dict(self) -> dict:
        return {
            "kind": self.ground.kind,
            "r": self.ground.r,
            "n": self.ground.n,
            "families": [[[v + 1 for v in e] for e in member.edges]
                         for member in self.families],
        }


def instance_from_dict(data, path: str = "instance") -> Instance:
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected an object")
    kind = data.get("kind")
    if kind not in (PARTITE, GENERAL):
        raise InputError(f"{path}.kind: expected 'partite' or 'general', got {kind!r}")
    r = _get_int(data, "r", path)
    n = _get_int(data, "n", path)
    try:
        ground = GroundSet(kind, r, n)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    fams = data.get("families")
    if not isinstance(fams, list) or not fams:
        raise InputError(f"{path}.families: expected a non-empty list")
    members = []
    for fi, fam in enumerate(fams):
        if not isinstance(fam, list):
            raise InputError(f"{path}.families[{fi}]: expected a list of edges")
        seen: set[Edge] = set()
        edges = []
        for ei, raw in enumerate(fam):
            where = f"{path}.families[{fi}][{ei}]"
            if (not isinstance(raw, list) or len(raw) != r
                    or any(not isinstance(v, int) or isinstance(v, bool) for v in raw)):
                raise InputError(f"{where}: expected a list of {r} integers")
            if any(v < 1 or v > n for v in raw):
                raise InputError(f"{where}: vertex labels must lie in [1, {n}]")
            e = tuple(v - 1 for v in raw)
            if kind == GENERAL and any(e[i] >= e[i + 1] for i in range(r - 1)):
                raise InputError(f"{where}: general edges must be strictly increasing")
            if e in seen:
                raise InputError(f"{where}: duplicate edge")
            seen.add(e)
            edges.append(e)
        members.append(Hypergraph._from_sorted(ground, tuple(sorted(edges))))
    return Instance(ground, tuple(members))


def _get_int(data: dict, key: str, path: str) -> int:
    v = data.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"{path}.{key}: expected a positive integer, got {v!r}")
    return v


def parse_instance(text: str) -> Instance:
    """Parse and fully validate the JSON instance format."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise InputError("JSON nested too deeply to parse") from None
    return instance_from_dict(data)


def serialize_instance(instance: Instance) -> str:
    """One member per line; stable output for golden files and round trips."""
    d = instance.to_dict()
    members = ",\n".join("    " + json.dumps(member) for member in d["families"])
    return (
        "{\n"
        f'  "kind": {json.dumps(d["kind"])},\n'
        f'  "r": {d["r"]},\n'
        f'  "n": {d["n"]},\n'
        '  "families": [\n'
        f"{members}\n"
        "  ]\n"
        "}\n"
    )


def edge_text(ground: GroundSet, edge: Edge) -> str:
    """1-based display labels: v_i on a general ground, m_i / w_j on a
    bipartite one, vs_i (vertex i of side s) on an r-partite one."""
    if ground.kind == GENERAL:
        return " ".join(f"v_{v + 1}" for v in edge)
    if ground.r == 2:
        return f"m_{edge[0] + 1} w_{edge[1] + 1}"
    return " ".join(f"v{s + 1}_{v + 1}" for s, v in enumerate(edge))
