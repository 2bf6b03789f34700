"""The JSON instance schema: parsing with path diagnostics, and lossless,
order-normalizing serialization with 1-based vertex labels."""
from __future__ import annotations

import gc
import itertools
import json
import operator

from .core import GENERAL, PARTITE, Edge, Family, GroundSet, Hypergraph, _Record
from .errors import InputError


class Instance(_Record):
    """A ground-set descriptor plus one hypergraph per family member.

    A member given as an edge list is validated into a Hypergraph here; the
    parser hands over members it has already validated. Edges are 0-based
    internally; the dict/JSON form is 1-based and emits edges in
    lexicographic order, which is a Hypergraph's edge order.
    """

    ground: GroundSet
    families: tuple[Hypergraph, ...]

    def __post_init__(self) -> None:
        members = []
        for i, m in enumerate(self.families):
            try:
                members.append(m if isinstance(m, Hypergraph) else Hypergraph(self.ground, m))
            except InputError as exc:
                raise InputError(f"families[{i}]{exc}") from None
        if any(m.ground != self.ground for m in members):
            raise InputError("instance members must lie on the instance's ground")
        object.__setattr__(self, "families", tuple(members))

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
        try:
            member, arrays = _member(ground, fam)
        except InputError as exc:
            raise InputError(f"{path}.families[{fi}]{exc}") from None
        members.append(member)
        if arrays < len(fam):  # a non-array, once the edges before it pass
            raise InputError(f"{path}.families[{fi}][{arrays}]: "
                             f"expected a list of {r} integers")
    return Instance(ground, tuple(members))


def _member(ground: GroundSet, fam: list) -> tuple[Hypergraph, int]:
    """The member made of fam's arrays up to its first non-array, with
    integer labels made 0-based (the member check refuses the rest), and the
    number of those arrays. When every edge is an array of r integers, the
    labels are shifted and regrouped in flat passes rather than a tuple
    built per edge, and the member check skips the shape it would repeat:
    on a member of ten thousand edges that is most of the parse after
    json.loads."""
    r = ground.r
    if set(map(type, fam)) == {list} and set(map(len, fam)) == {r}:
        labels = list(itertools.chain.from_iterable(fam))
        if set(map(type, labels)) == {int}:  # bools are left to the member check
            labels = list(map(operator.sub, labels, itertools.repeat(1)))
            edges = list(zip(*[iter(labels)] * r))
            return Hypergraph._of_shaped(ground, edges, labels), len(fam)
    arrays = list(itertools.takewhile(lambda raw: isinstance(raw, list), fam))
    edges = [tuple([v - 1 if type(v) is int else v for v in raw]) for raw in arrays]
    return Hypergraph(ground, edges), len(arrays)


def _get_int(data: dict, key: str, path: str) -> int:
    v = data.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f"{path}.{key}: expected a positive integer, got {v!r}")
    return v


def parse_instance(text: str) -> Instance:
    """Parse and fully validate the JSON instance format.

    The cyclic garbage collector is paused meanwhile: a large instance is a
    hundred thousand lists and tuples, none of them in a cycle, and the
    collections their allocation sets off rescan the growing tree, which
    took a third of the parse of a 70,000-edge file."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except RecursionError:
            raise InputError("JSON nested too deeply to parse") from None
        except ValueError as exc:  # an integer past Python's int-from-text limit
            raise InputError(f"JSON integer too long: {str(exc).split(';')[0]}") from None
        return instance_from_dict(data)
    finally:
        if enabled:
            gc.enable()


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
