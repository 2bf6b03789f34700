"""Value semantics of the immutable result and parameter records: equality
and hash follow the fields, repr lists them, fields cannot be assigned, and
pickle and deepcopy round-trip."""
import copy
import pickle

import pytest

from rainbowmatch import (PARTITE, AlgoTrace, DegreeMatrix, GroundSet, HallCheck,
                          Hypergraph, Instance, MatrixCheck, RainbowMatching,
                          ShiftLog, ShiftStep, StepRecord, VerifyReport)
from rainbowmatch.verify import _Checker

B3 = GroundSet(PARTITE, 2, 3)
B4 = GroundSet(PARTITE, 2, 4)
STEP = StepRecord(0, 1, 0, 0, (), (), (0, 0), 1, 0, True)
HALT = StepRecord(1, 0, 1, 1, (0,), (0,), None)

# record class -> its fields in declaration order, each as (value, another value)
RECORDS = {
    GroundSet: {"kind": (PARTITE, "general"), "r": (2, 1), "n": (3, 4)},
    RainbowMatching: {"choices": (((0, 1), (1, 0)), ((0, 0), (1, 1)))},
    Instance: {"ground": (B3, B4),
               "families": ((Hypergraph(B3, [(0, 1)]),), (Hypergraph(B3, [(2, 2)]),))},
    ShiftLog: {"steps": ((ShiftStep(B3, 0, 0, 1, (0b1000,)),), ())},
    HallCheck: {"ok": (False, True), "witness": ((0, 1), None), "total": (5, 6),
                "bound": (6, 12)},
    StepRecord: {"t": (0, 1), "member": (1, 0), "a": (0, 2), "b": (0, 2),
                 "covered_m": ((), (1,)), "covered_w": ((), (2,)),
                 "edge": ((0, 0), None), "length": (1, None), "tail_side": (0, 1),
                 "short": (True, False)},
    AlgoTrace: {"ground": (B3, B4), "order": ((1, 0), (0, 1)), "steps": ((STEP,), (HALT,)),
                "matching": (RainbowMatching(((0, 0),)), None), "halt_t": (None, 1),
                "final_a": (1, 2), "final_b": (1, 0)},
    DegreeMatrix: {"entries": (((2, 1, 0), (1, 1, 1)), ((3, 3, 3),)), "n": (3, 4)},
    VerifyReport: {"conjecture": ("simple", "matrix"), "params": ({"n": 3}, {"n": 4}),
                   "mode": ("random", "exhaustive"), "instances_checked": (7, 8),
                   "counterexamples": ((), ({"kind": PARTITE},)), "elapsed": (0.5, 0.25),
                   "seed": (1, None)},
    MatrixCheck: {"hypothesis": (True, False), "permutation": ((1, 0), None),
                  "weak_permutation": ((0, 1), None)},
    # builtins stand in for the callables: they pickle by name
    _Checker: {"ground": (B3, B4), "k": (2, 3), "hypothesis": (bool, callable),
               "conclusion": (callable, bool), "sampler": (repr, ascii), "trace": (iter, list),
               "floors": ((4, 4), ()), "sums": ((0, 0), (1, 7))},
}
UNCOMPARED = {(VerifyReport, "elapsed")}
# a field that cannot change alone, with the changes that keep the record valid
TOGETHER = {(Instance, "ground"): {"families": (Hypergraph(B4, [(0, 1)]),)},
            (DegreeMatrix, "n"): {"entries": ((4, 4, 0, 0),)}}
RECORD_IDS = [cls.__name__ for cls in RECORDS]


def build(cls, **changes):
    values = {name: pair[0] for name, pair in RECORDS[cls].items()}
    values.update(changes)
    return cls(**copy.deepcopy(values))


def compared(cls):
    return [name for name in RECORDS[cls] if (cls, name) not in UNCOMPARED]


@pytest.mark.parametrize("cls", RECORDS, ids=RECORD_IDS)
class TestRecord:
    def test_equality_follows_the_fields(self, cls):
        a, b = build(cls), build(cls)
        assert a == b and not a != b
        for name in compared(cls):
            other = build(cls, **{name: RECORDS[cls][name][1]},
                          **TOGETHER.get((cls, name), {}))
            assert a != other and not a == other, name

    def test_hash_follows_the_fields(self, cls):
        a, b = build(cls), build(cls)
        try:
            hash(tuple(getattr(a, name) for name in compared(cls)))
        except TypeError:  # a field value is unhashable, so is the record
            with pytest.raises(TypeError):
                hash(a)
            return
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_never_equals_another_record_class_or_a_tuple(self, cls):
        a = build(cls)
        for other_cls in RECORDS:
            if other_cls is not cls:
                assert a != build(other_cls) and build(other_cls) != a
        assert a != tuple(getattr(a, name) for name in RECORDS[cls])

    def test_repr_lists_the_fields(self, cls):
        a = build(cls)
        fields = ", ".join(f"{name}={getattr(a, name)!r}" for name in RECORDS[cls])
        assert repr(a) == f"{cls.__name__}({fields})"

    def test_fields_cannot_be_assigned(self, cls):
        a = build(cls)
        for name, (value, other) in RECORDS[cls].items():
            with pytest.raises(AttributeError):
                setattr(a, name, other)
            with pytest.raises(AttributeError):
                delattr(a, name)
        with pytest.raises(AttributeError):
            a.not_a_field = 1
        assert a == build(cls)

    def test_positional_construction(self, cls):
        values = [pair[0] for pair in RECORDS[cls].values()]
        assert cls(*copy.deepcopy(values)) == build(cls)
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(*values, not_a_field=None)
        with pytest.raises(TypeError):
            cls(values[0], **{next(iter(RECORDS[cls])): values[0]})

    @pytest.mark.parametrize("roundtrip", [lambda r: pickle.loads(pickle.dumps(r)),
                                           copy.deepcopy, copy.copy],
                             ids=["pickle", "deepcopy", "copy"])
    def test_copies_are_equal(self, cls, roundtrip):
        a = build(cls)
        b = roundtrip(a)
        assert type(b) is cls and b == a
        assert repr(b) == repr(a)


def test_defaults():
    assert HallCheck(True) == HallCheck(True, None, None, None)
    assert STEP.length == 1 and HALT.length is HALT.tail_side is HALT.short is None
    report = VerifyReport("simple", {}, "random", 0, ())
    assert report.elapsed == 0.0 and report.seed is None
    checker = _Checker(B3, 2, bool, bool, repr, iter)
    assert checker.floors == () and checker.sums == ()
    with pytest.raises(TypeError):  # every checker names its trace
        _Checker(B3, 2, bool, bool, repr)
    with pytest.raises(TypeError):
        HallCheck()
    with pytest.raises(TypeError):
        VerifyReport("simple", {}, "random", 0)


def test_reports_differing_only_in_elapsed_are_equal():
    a = build(VerifyReport, elapsed=0.5)
    b = build(VerifyReport, elapsed=99.0)
    assert a == b
    assert a.to_json() != b.to_json()


@pytest.mark.parametrize("roundtrip", [lambda g: pickle.loads(pickle.dumps(g)),
                                       copy.deepcopy], ids=["pickle", "deepcopy"])
def test_ground_with_a_built_index_round_trips(roundtrip):
    ground = GroundSet(PARTITE, 3, 3)
    ground.index
    assert "index" in vars(ground)
    copied = roundtrip(ground)
    assert copied == ground and hash(copied) == hash(ground)
    assert copied.index is not ground.index and copied.index._ground is copied
    edges = [(0, 1, 2), (2, 2, 0)]
    assert copied.index.mask(edges) == ground.index.mask(edges)
    assert copied.index.cells == ground.index.cells

