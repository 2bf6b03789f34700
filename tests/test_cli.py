import json
import os
import re
import subprocess
import sys
import time
from array import array
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference_parser
from rainbowmatch import (GENERAL, PARTITE, Family, GroundSet, Hypergraph,
                          InputError, Instance, TheoremViolationError,
                          parse_instance, serialize_instance)
from rainbowmatch import cli, solvers
from rainbowmatch.cli import main
from rainbowmatch.instances import instance_from_dict
from rainbowmatch.verify import ConjectureId

FIXTURES = Path(__file__).parent / "fixtures"
CLI_GOLDENS = FIXTURES / "cli"
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}


# 5,000 digits: past Python's default limit (4,300) for int from text
HUGE_N = '{"kind": "partite", "r": 2, "n": %s, "families": [[[1, 1]]]}' % ("9" * 5000)
HUGE_LABEL = '{"kind": "partite", "r": 2, "n": 2, "families": [[[1, %s]]]}' % ("9" * 5000)


def limit_memory():
    """Cap a child's address space at 1 GB, so that a command that would
    allocate per vertex fails at once instead of filling the machine."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (10 ** 9, 10 ** 9))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseInstance:
    def test_partite_pair(self):
        inst = parse_instance(
            '{"kind":"partite","r":2,"n":2,"families":[[[1,1]],[[2,2]]]}')
        fam = inst.to_family()
        assert fam.k == 2 and fam.ground == GroundSet(PARTITE, 2, 2)
        assert fam[0].edges == ((0, 0),) and fam[1].edges == ((1, 1),)

    def test_general_subgraph(self):
        inst = parse_instance(
            '{"kind":"general","n":5,"r":2,"families":[[[1,4],[2,3]]]}')
        fam = inst.to_family()
        assert fam.ground == GroundSet(GENERAL, 2, 5)
        assert fam[0].edges == ((0, 3), (1, 2))

    def test_round_trip_normalizes(self):
        raw = '{"kind":"partite","r":2,"n":2,"families":[[[2,2],[1,1]]]}'
        inst = parse_instance(raw)
        text = serialize_instance(inst)
        again = parse_instance(text)
        assert again == inst
        assert serialize_instance(again) == text
        assert '[[1, 1], [2, 2]]' in text  # edges sorted on output

    def test_malformed_json_reports_position(self):
        with pytest.raises(InputError, match=r"line 1 column"):
            parse_instance("{nope")

    @pytest.mark.parametrize("text", [HUGE_N, HUGE_LABEL], ids=["n", "label"])
    def test_integer_past_the_digit_limit_is_refused(self, text):
        if hasattr(sys, "get_int_max_str_digits"):
            limit = sys.get_int_max_str_digits()
            with pytest.raises(InputError,
                               match=rf"JSON integer too long: .*\({limit} digits\)"):
                parse_instance(text)

    def test_duplicate_edge_reports_path(self):
        with pytest.raises(InputError, match=r"families\[0\]\[1\].*duplicate"):
            parse_instance(
                '{"kind":"partite","r":2,"n":2,"families":[[[1,1],[1,1]]]}')

    def test_out_of_range_reports_path(self):
        with pytest.raises(InputError, match=r"families\[0\]\[0\]"):
            parse_instance(
                '{"kind":"partite","r":2,"n":2,"families":[[[1,3]]]}')

    def test_mixed_uniformity344(self):
        with pytest.raises(InputError, match=r"families\[0\]\[1\]"):
            parse_instance(
                '{"kind":"partite","r":2,"n":3,"families":[[[1,1],[1,2,3]]]}')

    def test_general_needs_increasing(self):
        with pytest.raises(InputError, match="increasing"):
            parse_instance(
                '{"kind":"general","r":2,"n":4,"families":[[[3,2]]]}')

    @pytest.mark.parametrize("enabled", [True, False])
    def test_the_collector_is_left_as_it_was_found(self, enabled):
        import gc
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            parse_instance('{"kind":"partite","r":2,"n":2,"families":[[[1,1]]]}')
            assert gc.isenabled() is enabled
            with pytest.raises(InputError):
                parse_instance('{"kind":"partite","r":2,"n":2,"families":[[[1,3]]]}')
            assert gc.isenabled() is enabled
            with pytest.raises(InputError):
                parse_instance("{nope")
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_each_edge_is_validated_once(self, monkeypatch):
        checked = []
        built = []
        original = GroundSet.check_edge
        check = Hypergraph._check  # the member check of both constructors

        def counting(self, edge):
            checked.append(tuple(edge))
            return original(self, edge)

        def building(self, ground, edges, labels):
            built.append(ground)
            check(self, ground, edges, labels)

        monkeypatch.setattr(GroundSet, "check_edge", counting)
        monkeypatch.setattr(Hypergraph, "_check", building)
        inst = parse_instance((FIXTURES / "steal_q3_n6.json").read_text())
        parsed, members = len(checked), len(built)
        fam = inst.to_family()
        assert parsed <= sum(map(len, fam))  # at most once per edge while parsing
        assert members == fam.k  # and one member check per member
        assert len(checked) == parsed  # and not again: to_family trusts the parser
        assert len(built) == members

    def test_hand_built_instance_is_validated(self):
        with pytest.raises(InputError, match="out of range"):
            Instance(GroundSet(PARTITE, 2, 2), (((0, 0), (0, 2)),))
        with pytest.raises(InputError, match="duplicate"):
            Instance(GroundSet(PARTITE, 2, 2), (((0, 0), (0, 0)),))

    def test_hand_built_instance_names_the_bad_member(self):
        with pytest.raises(InputError, match=r"^families\[1\]\[1\]: duplicate edge$"):
            Instance(GroundSet(PARTITE, 2, 2), (((0, 0),), ((0, 0), (0, 0))))

    def test_hand_built_member_on_another_ground_is_refused(self):
        with pytest.raises(InputError, match="ground"):
            Instance(GroundSet(PARTITE, 2, 2),
                     (Hypergraph(GroundSet(PARTITE, 2, 3), [(0, 0)]),))

    def test_fixture_corpus_round_trips(self):
        for path in sorted(FIXTURES.glob("*.json")):
            if path.name.startswith(("verify_", "shift_log_", "ideals_")):
                continue  # a report, shift-result or ideal-list fixture, not an instance
            text = path.read_text()
            assert serialize_instance(parse_instance(text)) == text


# One injected fault each: a bad label in place i, a bad length, a repeat of
# an earlier edge, or an edge that is no array at all.
FAULTS = {
    "bool": lambda e, i, n: e[:i] + [True] + e[i + 1:],
    "float": lambda e, i, n: e[:i] + [float(e[i])] + e[i + 1:],
    "string": lambda e, i, n: e[:i] + [str(e[i])] + e[i + 1:],
    "nested": lambda e, i, n: e[:i] + [[e[i]]] + e[i + 1:],
    "long": lambda e, i, n: e + [e[i]],
    "short": lambda e, i, n: e[:i] + e[i + 1:],
    "zero": lambda e, i, n: e[:i] + [0] + e[i + 1:],
    "past-n": lambda e, i, n: e[:i] + [n + 1] + e[i + 1:],
    "not-increasing": lambda e, i, n: e[:i] + [e[i - 1]] + e[i + 1:] if i else e[::-1],
    "not-an-array": lambda e, i, n: [None, 7, "edge", {"v": 1}][i % 4],
}
# The reference's fault words, and the words each may become here: the
# reference's shape and type fault is split in three.
FAULT_WORDS = {"expected a list of": ("expected a list of", "vertices, expected",
                                      "vertices must be integers"),
               "must lie in": ("out of range",),
               "increasing": ("increasing",),
               "duplicate": ("duplicate",)}


@st.composite
def documents(draw):
    """A JSON instance document of 1-3 members of distinct valid edges, in
    any order, with up to two faults injected."""
    kind = draw(st.sampled_from([PARTITE, GENERAL]))
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r if kind == GENERAL else 1, 4))
    cells = [[v + 1 for v in e] for e in GroundSet(kind, r, n).cells()]
    families = [draw(st.permutations(cells))[:draw(st.integers(0, len(cells)))]
                for _ in range(draw(st.integers(1, 3)))]
    for _ in range(draw(st.integers(0, 2))):
        member = draw(st.sampled_from(families))
        j = draw(st.integers(0, len(member)))
        arrays = [e for e in member if isinstance(e, list)]
        if arrays and draw(st.booleans()):
            bad = list(draw(st.sampled_from(arrays)))  # a repeat if inserted after it
        else:
            fault = draw(st.sampled_from(sorted(FAULTS)))
            bad = FAULTS[fault](list(draw(st.sampled_from(cells))), draw(st.integers(0, r - 1)), n)
        member.insert(j, bad)
    return {"kind": kind, "r": r, "n": n, "families": families}


def outcome(parse):
    """The sorted 0-based edges of each member, or the path and words of the
    first bad edge."""
    try:
        return parse()
    except InputError as exc:
        where, _, words = str(exc).partition(": ")
        return where, words


class TestMemberCheckAgainstReference:
    """The parser's shape check plus Hypergraph's member check accept what
    the per-edge reference parser accepts and refuse the same first edge."""

    @settings(max_examples=400)
    @given(documents())
    def test_parser_agrees_with_the_reference(self, doc):
        ours = outcome(lambda: [h.edges for h in instance_from_dict(doc).families])
        ref = outcome(lambda: reference_parser.parse_members(
            doc["kind"], doc["r"], doc["n"], doc["families"]))
        if isinstance(ref, list):
            assert ours == ref
            return
        assert isinstance(ours, tuple) and ours[0] == ref[0]
        allowed = next(v for k, v in FAULT_WORDS.items() if k in ref[1])
        assert any(w in ours[1] for w in allowed), (ours, ref)
        assert "[0," not in ours[1] and "[1," not in ours[1]  # no interval, either base

    @settings(max_examples=400)
    @given(documents())
    def test_hypergraph_decides_each_member_as_its_edge_walk(self, doc):
        ground = GroundSet(doc["kind"], doc["r"], doc["n"])
        for member in doc["families"]:
            if not all(isinstance(raw, list) for raw in member):
                continue  # the parser's shape check refuses it first
            edges = [tuple(v - 1 if type(v) is int else v for v in raw) for raw in member]
            walked = None  # the first edge check_edge refuses or that repeats
            for j, e in enumerate(edges):
                try:
                    ground.check_edge(e)
                except InputError:
                    walked = j
                    break
                if e in edges[:j]:
                    walked = j
                    break
            calls = []
            check_edge = GroundSet.check_edge
            GroundSet.check_edge = lambda self, e: calls.append(e) or check_edge(self, e)
            try:
                ours = outcome(lambda: Hypergraph(ground, edges).edges)
            finally:
                GroundSet.check_edge = check_edge
            ref = outcome(lambda: reference_parser.parse_members(
                doc["kind"], doc["r"], doc["n"], [member], path="")[0])
            if walked is None:
                # accepted on the whole member, without walking its edges
                assert ours == ref and not calls
            else:
                assert ours[0] == f"[{walked}]" and ref[0] == f".families[0][{walked}]"


@st.composite
def fuzzed_documents(draw):
    """An instance document on a small ground: most edges are cells of the
    ground, the rest mix in-range labels with 0, n+1, bools, floats, strings
    and nested lists; members may be empty or not lists at all."""
    kind = draw(st.sampled_from([PARTITE, GENERAL]))
    r = draw(st.sampled_from([1, 2, 2, 3]))
    n = draw(st.integers(1, 4))
    label = st.integers(1, n) | st.sampled_from(
        [0, n + 1, True, False, 1.0, 1.5, "1", [1], [[n]]])
    edge = st.lists(label, min_size=r, max_size=r) | st.lists(label, max_size=r + 1)
    if kind == PARTITE or n >= r:
        cell = st.sampled_from([[v + 1 for v in e] for e in GroundSet(kind, r, n).cells()])
        edge = st.one_of(cell, cell, cell, cell, cell, edge)
    member = (st.lists(edge, max_size=6, unique_by=repr)
              | st.sampled_from([None, 7, "edges", {"e": [1]}]))
    return {"kind": kind, "r": r, "n": n,
            "families": draw(st.lists(member, min_size=1, max_size=3))}


FUZZED_COMMANDS = ([["solve", "--algorithm", a] for a in
                    ("hall", "greedy", "meshulam", "r3", "simple", "large-n", "oracle")]
                   + [["shift"], ["nu"], ["check"], ["trace", "--in", "-"]])


def run_in_process(argv, stdin_text=""):
    """main(argv) with stdin_text on stdin: its status and its stderr."""
    import contextlib
    import io
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # a usage error
                code = exc.code
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


class TestFuzzedInstances:
    """Every command that reads an instance either answers or refuses it:
    exit 0, 2 or 3, and never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(fuzzed_documents(), st.sampled_from(["text", "json"]))
    def test_every_reader_answers_or_refuses(self, doc, format):
        text = json.dumps(doc)
        for argv in FUZZED_COMMANDS:
            code, err = run_in_process([*argv, "--format", format], text)
            # 4, a failed guaranteed step, would also have to dump the instance;
            # no input here may reach it
            assert code in (0, 2, 3), (argv, code, err)
            assert "Traceback" not in err, argv


@st.composite
def fuzzed_flags(draw):
    """An argv of verify, extremal or trace --name steal whose integer flags
    are small, zero, negative or 10^20. Exhaustive checks draw values of at
    most 3, as matrix at n=4, k=3 alone walks for seconds."""
    command = draw(st.sampled_from(["conjecture", "threshold", "extremal", "trace"]))
    mode = draw(st.sampled_from(["random", "exhaustive"]))
    small = 3 if command == "conjecture" and mode == "exhaustive" else 4
    value = st.integers(-1, small) | st.just(10 ** 20)

    def flags(*names):
        return [a for name in names for a in (f"--{name}", str(draw(value)))]

    if command == "conjecture":
        argv = ["verify", "--conjecture", draw(st.sampled_from([c.value for c in ConjectureId])),
                *flags("n", "r", "k", *["d"] * draw(st.booleans())), "--mode", mode,
                "--budget", str(draw(st.integers(-1, 300))),
                "--seed", str(draw(st.integers(-1, 2 ** 64) | st.just(10 ** 20))),
                "--workers", str(draw(st.integers(0, 1)))]
    elif command == "threshold":
        argv = ["verify", "--threshold", draw(st.sampled_from(["f_r2_general", "g_partite"])),
                *flags("n", "r", "k")]
    elif command == "extremal":
        argv = ["extremal", "--name", draw(st.sampled_from(["star", "steal", "r3counter", "ekr"])),
                *flags("n", "r", "k", "q")]
    else:
        argv = ["trace", "--name", "steal", *flags("q", "n")]
    return [*argv, "--format", draw(st.sampled_from(["text", "json"]))]


class TestFuzzedFlags:
    """Every flag combination of the commands that read no instance is
    answered or refused: exit 0, 2 or 3, and never a traceback."""

    @settings(max_examples=60, deadline=None)
    @given(fuzzed_flags())
    def test_every_flag_combination_is_answered_or_refused(self, argv):
        code, err = run_in_process(argv)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv


class TestTraceCommand:
    def test_steal_golden_file(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--name", "steal",
                                 "--q", "3", "--n", "6")
        assert code == 0 and err == ""
        assert out == (FIXTURES / "steal_q3_n6_trace.txt").read_text()

    def test_json_trace(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--name", "steal",
                               "--q", "3", "--n", "6", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "hall_trace"
        assert payload["outcome"] == {"status": "halt", "t": 4}
        assert payload["steps"][0]["edge"] == [3, 1]
        assert payload["steps"][0]["tail"] == "w_1"
        assert payload["final_R"] == {"m": [1, 2, 3], "w": [1]}

    def test_neither_name_nor_input_exits_3(self, capsys):
        code, out, err = run_cli(capsys, "trace")
        assert (code, out) == (3, "")
        assert err == "error: trace needs --name or --in\n"

    def test_unshifted_instance_is_a_precondition_error(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text('{"kind":"partite","r":2,"n":2,"families":[[[2,2]]]}')
        code, _, err = run_cli(capsys, "trace", "--in", str(path))
        assert code == 3 and "shifted" in err


class TestSolveCommand:
    def test_oracle_no_matching_star(self, tmp_path, capsys):
        star = FIXTURES / "star_n3_r2_k2.json"
        code, out, _ = run_cli(capsys, "solve", "--algorithm", "oracle",
                               "--in", str(star))
        assert code == 2
        assert out == "no rainbow matching\n"

    def test_oracle_success_text(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text('{"kind":"partite","r":2,"n":2,"families":[[[1,1]],[[2,2]]]}')
        code, out, _ = run_cli(capsys, "solve", "--algorithm", "oracle",
                               "--in", str(path))
        assert code == 0
        assert out == "F_1: m_1 w_1\nF_2: m_2 w_2\n"

    def test_hall_on_steal_halts(self, capsys):
        steal = FIXTURES / "steal_q3_n6.json"
        code, out, _ = run_cli(capsys, "solve", "--algorithm", "hall",
                               "--in", str(steal), "--format", "json")
        assert code == 2
        payload = json.loads(out)
        assert payload["status"] == "halt" and payload["halt_t"] == 4

    def test_hall_success_pulls_back(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text('{"kind":"partite","r":2,"n":2,'
                        '"families":[[[2,2],[1,2]],[[1,1],[1,2],[2,1],[2,2]]]}')
        code, out, _ = run_cli(capsys, "solve", "--algorithm", "hall",
                               "--in", str(path), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        fam = parse_instance(path.read_text()).to_family()
        choices = [tuple(v - 1 for v in e) for e in payload["matching"]]
        assert all(tuple(e) in fam[i] for i, e in enumerate(choices))

    def test_meshulam_on_partite_is_input_error(self, capsys):
        star = FIXTURES / "star_n3_r2_k2.json"
        code, _, err = run_cli(capsys, "solve", "--algorithm", "meshulam",
                               "--in", str(star))
        assert code == 3 and "general" in err

    def test_greedy_failure_exit(self, capsys):
        star = FIXTURES / "star_n3_r2_k2.json"
        code, out, _ = run_cli(capsys, "solve", "--algorithm", "greedy",
                               "--in", str(star))
        assert code == 2 and "no rainbow matching found" in out

    def test_hall_on_general_is_input_error(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--algorithm", "hall",
                                 "--in", str(FIXTURES / "ekr_n6_r3.json"))
        assert (code, out) == (3, "") and "partite" in err

    def test_greedy_allocates_nothing_per_vertex(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"kind": "partite", "r": 2, "n": 10 ** 30,
                                    "families": [[[1, 10 ** 30]]]}))
        code, out, err = run_cli(capsys, "solve", "--algorithm", "greedy",
                                 "--in", str(path))
        assert (code, out, err) == (0, f"F_1: m_1 w_{10 ** 30}\n", "")

    def test_theorem_violation_exits_4_with_the_instance(self, capsys, monkeypatch):
        def violate(family):
            raise TheoremViolationError("greedy step failed", instance=family)

        monkeypatch.setattr(solvers, "greedy_bipartite", violate)
        star = FIXTURES / "star_n3_r2_k2.json"
        code, out, err = run_cli(capsys, "solve", "--algorithm", "greedy",
                                 "--in", str(star))
        assert (code, out) == (4, "")
        first, dump = err.split("\n", 1)
        assert first == "theorem violation: greedy step failed"
        assert parse_instance(dump) == parse_instance(star.read_text())

    def test_r3_solve(self, tmp_path, capsys):
        import itertools
        edges = [list(e) for e in itertools.product([1, 2], repeat=3)]
        doc = json.dumps({"kind": "partite", "r": 3, "n": 2,
                          "families": [edges, edges]})
        path = tmp_path / "i.json"
        path.write_text(doc)
        code, out, _ = run_cli(capsys, "solve", "--algorithm", "r3",
                               "--in", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["status"] == "success"


class TestOtherCommands:
    @pytest.mark.parametrize("argv,message", [
        (["--conjecture", "simple", "--n", "4", "--k", "2", "--r", "5"], "needs r=2, got r=5"),
        (["--conjecture", "simple", "--n", "4", "--k", "2", "--r", "3"], "needs r=2, got r=3"),
        (["--conjecture", "matrix", "--n", "3", "--k", "2", "--r", "3",
          "--mode", "exhaustive"], "needs r=2, got r=3"),
        (["--conjecture", "degree_condition", "--n", "4", "--k", "2", "--r", "3", "--d", "1"],
         "needs r=2, got r=3"),
        (["--conjecture", "size_condition", "--n", "3", "--k", "2", "--d", "7"],
         "takes no degree cap d, got d=7"),
        (["--threshold", "g_partite", "--n", "3", "--k", "2", "--d", "4"],
         "g_partite takes no degree cap d, got d=4"),
    ])
    def test_verify_refuses_a_parameter_it_never_reads(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and message in err and "Traceback" not in err

    def test_nu(self, capsys):
        star = FIXTURES / "star_n3_r2_k2.json"
        code, out, _ = run_cli(capsys, "nu", "--in", str(star))
        assert code == 0
        assert out == "F_1: nu = 1\nF_2: nu = 1\n"

    def test_nu_on_a_long_path_exits_cleanly(self, tmp_path):
        # one search level per matched edge: far deeper than the recursion limit
        path = tmp_path / "path.json"
        path.write_text(json.dumps({"kind": "general", "r": 2, "n": 3000, "families": [
            [[v, v + 1] for v in range(1, 3000)]]}))
        proc = subprocess.run([sys.executable, "-m", "rainbowmatch", "nu", "--in", str(path)],
                              capture_output=True, text=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == 0 and "Traceback" not in proc.stderr
        assert proc.stdout == "F_1: nu = 1500\n"

    def test_check_steal(self, capsys):
        steal = FIXTURES / "steal_q3_n6.json"
        code, out, _ = run_cli(capsys, "check", "--in", str(steal),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is False
        assert payload["witness"] == [1, 2, 3, 4]
        assert payload["total"] == payload["bound"] == 72

    def test_shift_json_log_replays(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text('{"kind":"partite","r":2,"n":2,"families":[[[2,2]]]}')
        code, out, _ = run_cli(capsys, "shift", "--in", str(path),
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["instance"]["families"] == [[[1, 1]]]
        assert len(payload["log"]) > 0

    @pytest.mark.parametrize("name", ["partite_r2", "partite_r3", "general_r2"])
    def test_shift_json_golden(self, capsys, name):
        # steps with several moving members, each with several pairs
        code, out, err = run_cli(capsys, "shift", "--in",
                                 str(FIXTURES / f"shift_in_{name}.json"),
                                 "--format", "json")
        assert code == 0 and err == ""
        assert out == (FIXTURES / f"shift_log_{name}.json").read_text()

    def test_extremal_dumps_match_fixtures(self, capsys):
        cases = [
            (("--name", "steal", "--q", "3", "--n", "6"), "steal_q3_n6.json"),
            (("--name", "star", "--n", "3", "--r", "2", "--k", "2"),
             "star_n3_r2_k2.json"),
            (("--name", "r3counter", "--n", "3"), "r3counter_n3.json"),
            (("--name", "ekr", "--n", "6", "--r", "3"), "ekr_n6_r3.json"),
        ]
        for argv, fixture in cases:
            code, out, _ = run_cli(capsys, "extremal", *argv, "--format", "json")
            assert code == 0
            assert out == (FIXTURES / fixture).read_text()

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_rainbow_general_threshold_of_every_cell_exits_3(self, capsys, mode):
        code, out, err = run_cli(capsys, "verify", "--conjecture", "rainbow_general",
                                 "--n", "4", "--r", "2", "--k", "3", "--mode", mode)
        assert (code, out) == (3, "")
        assert err == "error: hypothesis bound 6 leaves no admissible size\n"

    def test_extremal_bad_params_exit(self, capsys):
        code, _, err = run_cli(capsys, "extremal", "--name", "steal",
                               "--q", "3", "--n", "3")
        assert code == 3 and "q < n" in err

    def test_verify_threshold(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--threshold", "f_r2_general",
                               "--n", "4", "--k", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["value"] == 3

    def test_verify_conjecture_exhaustive(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "size_condition",
                               "--n", "2", "--r", "2", "--k", "2",
                               "--mode", "exhaustive", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["counterexamples"] == []
        assert payload["instances_checked"] == 4

    def test_verify_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--conjecture", "degree_condition",
                               "--n", "2", "--k", "2", "--d", "1",
                               "--mode", "random", "--budget", "50", "--seed", "7")
        assert code == 0
        assert "counterexamples:" in out

    def test_verify_degree_cap_past_n_exits_3_at_once(self, capsys):
        # 300 + 300 vertices of max degree 100000 carry at most 300^2 edges
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--conjecture", "degree_condition",
                                 "--n", "300", "--k", "2", "--d", "100000",
                                 "--mode", "random", "--budget", "1")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "") and "Traceback" not in err
        assert err == ("error: no bipartite graph with max degree 100000 "
                       "has more than 90000 edges\n")

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    def test_verify_general_threshold_walk_refusal_names_the_threshold(self, capsys,
                                                                       monkeypatch, mode):
        # f(10, 2, 6) has no closed form (n < 2k), and its walk over 45 cells
        # is refused in either mode before anything is drawn
        from rainbowmatch import sampling
        monkeypatch.setattr(sampling, "_below", lambda *args: pytest.fail("drawn"))
        monkeypatch.setattr(sampling, "_mask_sampler", lambda *args: pytest.fail("drawn"))
        code, out, err = run_cli(capsys, "verify", "--conjecture", "rainbow_general",
                                 "--n", "10", "--r", "2", "--k", "6", "--mode", mode)
        assert (code, out) == (3, "") and "Traceback" not in err
        assert err == ("error: exhaustive enumeration refused: the threshold f(10, 2, 6) "
                       "walks every shifted edge set in either mode; its universe has 45 "
                       "cells (limit 36); up to 2^45 candidate edge sets\n")

    @pytest.mark.parametrize("mode", ["random", "exhaustive"])
    @pytest.mark.parametrize("n", ["12", "30"])
    def test_verify_matrix_k_past_10_exits_3_with_one_message(self, capsys, n, mode):
        # refused before any draw or walk, whatever n and the mode
        code, out, err = run_cli(capsys, "verify", "--conjecture", "matrix", "--n", n,
                                 "--k", "11", "--mode", mode, "--budget", "1")
        assert (code, out) == (3, "")
        assert err == "error: permutation search is limited to k <= 10, got k=11\n"

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_verify_workers_below_one_exit(self, capsys, workers):
        code, out, err = run_cli(capsys, "verify", "--conjecture", "size_condition",
                                 "--n", "2", "--k", "2", "--budget", "10",
                                 "--workers", workers)
        assert code == 3 and out == "" and "workers" in err

    @pytest.mark.parametrize("workers", ["2", "3"])
    def test_verify_exhaustive_with_more_workers_exits_3(self, capsys, workers):
        # exhaustive mode runs in one process, so --workers above 1 is refused
        # rather than ignored
        code, out, err = run_cli(capsys, "verify", "--conjecture", "size_condition",
                                 "--n", "3", "--r", "2", "--k", "2", "--mode", "exhaustive",
                                 "--workers", workers)
        assert (code, out) == (3, "")
        assert err == (f"error: exhaustive mode runs in one process: workers must be 1, "
                       f"got {workers}\n")

    @pytest.mark.parametrize("stop", ["killed", "fork refused"])
    def test_verify_worker_that_stops_leaves_the_one_worker_report(self, capsys, monkeypatch,
                                                                    stop):
        # a child killed mid-run, as by the OOM killer, and a fork refused
        # under a process limit leave their shards to the caller
        import errno
        import signal
        from rainbowmatch import sampling
        if not hasattr(os, "fork"):
            pytest.skip("the pool needs os.fork")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        argv = ["verify", "--conjecture", "size_condition", "--n", "4", "--r", "3", "--k", "2",
                "--budget", "1200", "--seed", "1", "--format", "json"]
        one = run_cli(capsys, *argv)
        caller, run_shard = os.getpid(), sampling._run_shard

        def killed(args):  # shard 4 is child 1's second
            if args[4] == 4 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return run_shard(args)

        def refused():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        if stop == "killed":
            monkeypatch.setattr(sampling, "_run_shard", killed)
        else:
            monkeypatch.setattr(os, "fork", refused)
        three = run_cli(capsys, *argv, "--workers", "3")
        assert one[0] == three[0] == 0 and one[2] == three[2] == ""
        assert ELAPSED_LINE.sub("", three[1]) == ELAPSED_LINE.sub("", one[1])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("argv", [["solve", "--algorithm", "bogus"],
                                      ["verify", "--conjecture", "simple", "--n", "x"],
                                      []])
    def test_usage_error_exits_3(self, capsys, argv):
        # argparse's own status, 2, would read as "no rainbow matching"
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == 3 and captured.out == ""
        assert re.fullmatch(r"usage: rainbowmatch.*\nrainbowmatch[a-z ]*: error: .+\n",
                            captured.err, re.DOTALL)

    @pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0 and capsys.readouterr().out.startswith("usage:")

    def test_missing_file_exits_3(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "nu", "--in", str(tmp_path / "missing.json"))
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read") and "No such file" in err

    def test_directory_exits_3(self, tmp_path, capsys):
        code, out, err = run_cli(capsys, "nu", "--in", str(tmp_path))
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot read") and "directory" in err

    def test_file_not_utf8_exits_3(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_bytes(b'{"kind": "\xff"}')
        code, out, err = run_cli(capsys, "nu", "--in", str(path))
        assert (code, out) == (3, "") and "not UTF-8" in err

    def test_stdin_not_utf8_exits_3(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xfe\xff"),
                                                          encoding="utf-8"))
        code, out, err = run_cli(capsys, "nu")
        assert (code, out) == (3, "") and "stdin: not UTF-8" in err

    @pytest.mark.parametrize("data", [b"\xfe\xff", b'{"kind": "partite\xff"}'],
                             ids=["bad-start", "bad-string"])
    def test_stdin_decoded_strictly_under_an_escaping_locale(self, capsys, monkeypatch,
                                                             data):
        # the C locale's UTF-8 mode decodes stdin with surrogateescape, which
        # would pass bad bytes on to the JSON parser
        import io
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape"))
        code, out, err = run_cli(capsys, "nu")
        assert (code, out) == (3, "")
        assert err.startswith("error: stdin: not UTF-8 text") and "\\udc" not in err

    @pytest.mark.parametrize("argv", [["solve", "--algorithm", "hall"], ["shift"]],
                             ids=["hall", "shift"])
    def test_ground_too_large_to_shift_exits_3(self, tmp_path, capsys, argv):
        # refused before the cell index or the shift pairs are allocated
        path = tmp_path / "i.json"
        path.write_text('{"kind": "partite", "r": 2, "n": %d, "families": [[[5, 7]]]}'
                        % 10 ** 30)
        code, out, err = run_cli(capsys, *argv, "--in", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ground too large to shift")
        assert f"needs at least {2 * 10 ** 60} bits" in err
        assert f"{10 ** 30 * (10 ** 30 - 1)} shift pairs" in err

    def test_one_cell_ground_past_the_sweep_limit(self, tmp_path, capsys):
        # a general ground with r = n has one cell: the oracles index it, but
        # its closure sweep of n(n-1)/2 shift pairs is still refused
        n = 30000
        path = tmp_path / "i.json"
        path.write_text(json.dumps({"kind": "general", "r": n, "n": n,
                                    "families": [[list(range(1, n + 1))]]}))
        code, out, err = run_cli(capsys, "nu", "--in", str(path), "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)["values"] == [1]
        code, out, err = run_cli(capsys, "solve", "--algorithm", "oracle", "--in", str(path),
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["matching"] == [list(range(1, n + 1))]
        code, out, err = run_cli(capsys, "shift", "--in", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("error: ground too large to shift")
        assert f"{n * (n - 1) // 2} shift pairs" in err

    def test_deeply_nested_json_exits_3(self, tmp_path, capsys):
        path = tmp_path / "i.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(capsys, "nu", "--in", str(path))
        assert (code, out) == (3, "") and "nested too deeply" in err

    @pytest.mark.parametrize("argv,stdin", [
        (["nu", "--in", "/nonexistent/i.json"], b""),
        (["nu"], b"\xfe\xff"),
        (["nu"], b"[" * 100_000),
    ], ids=["missing-file", "not-utf8", "deep-nesting"])
    def test_unreadable_input_has_no_traceback(self, argv, stdin):
        proc = subprocess.run([sys.executable, "-m", "rainbowmatch", *argv],
                              input=stdin, capture_output=True, env=SRC_ENV, timeout=120)
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr

    @pytest.mark.parametrize("text,from_file", [(HUGE_N, True), (HUGE_LABEL, False)],
                             ids=["n-in-file", "label-on-stdin"])
    def test_integer_past_the_digit_limit_has_no_traceback(self, tmp_path, text, from_file):
        path = tmp_path / "huge.json"
        path.write_text(text)
        argv = ["nu", "--in", str(path)] if from_file else ["nu"]
        proc = subprocess.run([sys.executable, "-m", "rainbowmatch", *argv],
                              input=b"" if from_file else text.encode(),
                              capture_output=True, env=SRC_ENV, timeout=60)
        assert b"Traceback" not in proc.stderr
        if hasattr(sys, "get_int_max_str_digits"):
            assert proc.returncode == 3 and proc.stdout == b""
            assert proc.stderr.startswith(b"error: JSON integer too long")
        else:
            assert proc.returncode in (0, 3)

    @pytest.mark.parametrize("argv", [
        ["verify", "--threshold", "g_partite", "--n", "2", "--r", "20000", "--k", "2"],
        ["verify", "--conjecture", "size_condition", "--n", "2", "--r", "20000",
         "--k", "2", "--mode", "exhaustive"],
        ["verify", "--conjecture", "rainbow_general", "--n", "40000", "--r", "20000",
         "--k", "2", "--mode", "exhaustive"],
        ["extremal", "--name", "star", "--n", "2", "--r", "100000"],
        ["extremal", "--name", "ekr", "--n", "60", "--r", "30"],
        ["extremal", "--name", "steal", "--n", "1000000000"],
        ["extremal", "--name", "star", "--n", "1", "--r", "1000000000", "--k", "2"],
        ["extremal", "--name", "star", "--n", "1024", "--r", "2", "--k", "513"],
        ["verify", "--conjecture", "size_condition", "--n", "2", "--k", str(10 ** 20)],
        ["verify", "--conjecture", "rainbow_general", "--n", "4", "--r", "1",
         "--k", str(10 ** 20)],
        ["verify", "--conjecture", "simple", "--n", str(10 ** 20), "--k", str(10 ** 20)],
        ["verify", "--conjecture", "matrix", "--n", str(10 ** 20), "--k", str(10 ** 20),
         "--budget", "1"],
    ], ids=["threshold", "size-condition", "rainbow-general", "star", "ekr", "steal",
            "star-one-edge", "star-copies", "size-condition-k", "rainbow-general-k",
            "simple-k", "matrix-k"])
    def test_huge_grounds_are_refused_with_a_short_message(self, argv):
        # the estimate is capped, so it prints in a few digits however large
        # the ground, and nothing is enumerated or generated first; a huge k
        # is refused before its k floors or k sizes are listed
        proc = subprocess.run([sys.executable, "-m", "rainbowmatch", *argv],
                              capture_output=True, env=SRC_ENV, timeout=60,
                              preexec_fn=limit_memory)
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr
        assert len(proc.stderr) < 500

    @pytest.mark.parametrize("argv,out", [
        (["star", "--n", "3", "--r", "1000000000", "--k", "1"],
         "kind: partite r=1000000000 n=3\nF_1: (empty)\n"),
        (["ekr", "--n", str(10 ** 20), "--r", "1"], f"kind: general r=1 n={10 ** 20}\nF_1: v_1\n"),
    ], ids=["star-no-edges", "ekr-one-vertex"])
    def test_small_family_on_a_huge_ground_lists_only_its_edges(self, argv, out):
        proc = subprocess.run([sys.executable, "-m", "rainbowmatch", "extremal", "--name", *argv],
                              capture_output=True, env=SRC_ENV, timeout=60,
                              preexec_fn=limit_memory)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout == out.encode()

    def test_estimate_past_the_int_to_text_limit_is_a_power_of_ten(self):
        # n^29 has 5,800 digits, past what Python converts to text by default
        proc = subprocess.run([sys.executable, "-m", "rainbowmatch", "verify", "--threshold",
                               "g_partite", "--n", str(10 ** 200), "--r", "30", "--k", "2"],
                              capture_output=True, env=SRC_ENV, timeout=60)
        assert proc.returncode == 3 and proc.stdout == b""
        assert proc.stderr.startswith(b"error: ") and b"Traceback" not in proc.stderr
        if hasattr(sys, "get_int_max_str_digits"):
            assert b"at least 10^5799 cells" in proc.stderr

    def test_size_condition_ground_refused_before_its_bound(self, capsys, monkeypatch):
        # the bound (k-1) n^(r-1) and the cell count n^r are not computed for
        # a ground too large to index
        from rainbowmatch import verify

        def no_bound(*args):
            raise AssertionError("g_formula called before the guard")
        monkeypatch.setattr(verify, "g_formula", no_bound)
        for mode in ("exhaustive", "random"):
            code, out, err = run_cli(capsys, "verify", "--conjecture", "size_condition",
                                     "--n", "3", "--r", "3000000", "--k", "2", "--mode", mode)
            assert (code, out) == (3, "")
            assert err.startswith("error: ground too large to shift")

    @pytest.mark.parametrize("name", ["star", "ekr"])
    def test_construction_on_a_huge_ground_is_refused_before_listing(self, capsys, name):
        code, out, err = run_cli(capsys, "extremal", "--name", name,
                                 "--n", str(10 ** 200), "--r", "3")
        assert (code, out) == (3, "")
        assert err.startswith("error: construction refused")

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"kind":"partite","r":2,"n":2,"families":[[[1,1]]]}'))
        code, out, _ = run_cli(capsys, "nu")
        assert code == 0 and out == "F_1: nu = 1\n"


def fx(name):
    return str(FIXTURES / name)


# (golden name, argv, exit status[, formats]): each case runs in each of its
# formats, by default text and JSON, and its stdout is compared byte for byte
# with cli/<name>.txt or cli/<name>.json. The JSON of shift and extremal, and
# the text of trace, are pinned by the goldens in fixtures/ itself.
TEXT = ("text",)
GOLDEN_CASES = [
    ("solve_hall_success", ["solve", "--algorithm", "hall", "--in", fx("cli/in_hall_pair.json")], 0),
    ("solve_greedy_success", ["solve", "--algorithm", "greedy", "--in", fx("cli/in_bip_full.json")], 0),
    ("solve_simple_success", ["solve", "--algorithm", "simple", "--in", fx("cli/in_hall_pair.json")], 0),
    ("solve_meshulam_success", ["solve", "--algorithm", "meshulam", "--in", fx("cli/in_k4_pair.json")], 0),
    ("solve_r3_success", ["solve", "--algorithm", "r3", "--in", fx("cli/in_r3_cube.json")], 0),
    ("solve_large_n_success", ["solve", "--algorithm", "large-n", "--in", fx("cli/in_r3_cube.json")], 0),
    ("solve_oracle_success", ["solve", "--algorithm", "oracle", "--in", fx("ekr_n6_r3.json")], 0),
    ("solve_oracle_none", ["solve", "--algorithm", "oracle", "--in", fx("star_n3_r2_k2.json")], 2),
    ("solve_greedy_failure", ["solve", "--algorithm", "greedy", "--in", fx("star_n3_r2_k2.json")], 2),
    ("solve_simple_failure", ["solve", "--algorithm", "simple", "--in", fx("cli/in_simple_low.json")], 2),
    ("solve_large_n_failure", ["solve", "--algorithm", "large-n", "--in", fx("cli/in_large_n_stuck.json")], 2),
    ("solve_hall_halt", ["solve", "--algorithm", "hall", "--in", fx("steal_q3_n6.json")], 2),
    ("nu_steal", ["nu", "--in", fx("steal_q3_n6.json")], 0),
    ("check_violated", ["check", "--in", fx("steal_q3_n6.json")], 0),
    ("check_holds", ["check", "--in", fx("cli/in_hall_pair.json")], 0),
    ("shift_partite_r2", ["shift", "--in", fx("shift_in_partite_r2.json")], 0, TEXT),
    ("shift_partite_r3", ["shift", "--in", fx("shift_in_partite_r3.json")], 0, TEXT),
    ("shift_general_r2", ["shift", "--in", fx("shift_in_general_r2.json")], 0, TEXT),
    ("extremal_star", ["extremal", "--name", "star", "--n", "3", "--r", "2", "--k", "2"], 0, TEXT),
    ("extremal_steal", ["extremal", "--name", "steal", "--q", "3", "--n", "6"], 0, TEXT),
    ("extremal_r3counter", ["extremal", "--name", "r3counter", "--n", "3"], 0, TEXT),
    ("extremal_ekr", ["extremal", "--name", "ekr", "--n", "6", "--r", "3"], 0, TEXT),
    ("threshold_f_r2", ["verify", "--threshold", "f_r2_general", "--n", "4", "--k", "2"], 0),
    ("threshold_g_partite", ["verify", "--threshold", "g_partite", "--n", "2", "--r", "2", "--k", "2"], 0),
    ("conjecture_degree_random", ["verify", "--conjecture", "degree_condition", "--n", "2",
                                  "--k", "2", "--d", "1", "--budget", "100", "--seed", "7"], 0),
    ("conjecture_size_exhaustive", ["verify", "--conjecture", "size_condition", "--n", "2",
                                    "--r", "2", "--k", "2", "--mode", "exhaustive"], 0),
    ("trace_steal", ["trace", "--name", "steal", "--q", "3", "--n", "6"], 0, ("json",)),
    ("trace_success", ["trace", "--in", fx("cli/in_trace_success.json")], 0),
]

# a verify report's run time is the one field that differs between runs
ELAPSED_LINE = re.compile(r'^  "elapsed": .*\n', re.M)


GOLDEN_RUNS = [pytest.param(name, argv, status, format, id=f"{name}-{format}")
               for name, argv, status, *formats in GOLDEN_CASES
               for format in (formats[0] if formats else ("text", "json"))]


class TestGoldenOutput:
    @pytest.mark.parametrize("name,argv,status,format", GOLDEN_RUNS)
    def test_output_is_byte_identical(self, capsys, name, argv, status, format):
        code, out, err = run_cli(capsys, *argv, "--format", format)
        assert (code, err) == (status, "")
        suffix = ".txt" if format == "text" else ".json"
        golden = (CLI_GOLDENS / f"{name}{suffix}").read_bytes().decode()
        assert ELAPSED_LINE.sub("", out) == golden


PACKAGE_MODULES = {"core", "errors", "exhaustive", "extremal", "index", "instances",
                   "oracles", "sampling", "shifting", "solvers", "verify"}


def test_import_loads_neither_the_process_pool_nor_dataclasses():
    # no command loads more than the CLI and every module of the package do
    # once executed (the star import runs every module that defines an export,
    # and verify, which imports from it, runs index, which defines none);
    # compared against a bare interpreter, so modules that a site hook loads
    # do not count
    show = "import sys; print(*sorted(sys.modules))"
    run_all = ("import sys, types, rainbowmatch.cli; from rainbowmatch import *; "
               "assert all(type(m) is types.ModuleType for name, m in sys.modules.items() "
               "if name.startswith('rainbowmatch')); ")

    def loaded(code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=SRC_ENV, timeout=60, check=True)
        return set(proc.stdout.split())

    added = loaded(run_all + show) - loaded(show)
    assert {f"rainbowmatch.{name}" for name in PACKAGE_MODULES} <= added
    assert not added & {"dataclasses", "inspect", "concurrent.futures", "multiprocessing"}


def executed_modules(*argv):
    """The exit status of the command, run in a fresh interpreter, and the
    package modules that have executed by its end. Importing the package only
    registers its modules; each stays lazy, not a plain module, until it runs.
    No argv: the package is imported and nothing run."""
    code = ("import contextlib, io, sys, types\n"
            "import rainbowmatch\n"
            "status = None\n"
            "if sys.argv[1:]:\n"
            "    from rainbowmatch.cli import main\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = main(sys.argv[1:])\n"
            "print(status, *(name for name, m in sys.modules.items()\n"
            "                if name.startswith('rainbowmatch.') and type(m) is types.ModuleType))")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=SRC_ENV, timeout=60, check=True)
    status, *names = proc.stdout.split()
    return status, {name.removeprefix("rainbowmatch.") for name in names}



def test_two_workers_load_no_pickle():
    # the pool sends results by marshal; two CPUs are granted, so the run
    # forks one child on any host
    code = ("import contextlib, io, os, sys\n"
            "from rainbowmatch.cli import main\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork, forks = os.fork, []\n"
            "os.fork = lambda: forks.append(1) or fork()\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = main(sys.argv[1:])\n"
            "print(status, len(forks), 'pickle' in sys.modules)")
    argv = ["verify", "--conjecture", "size_condition", "--n", "3", "--r", "3", "--k", "2",
            "--budget", "600", "--seed", "1", "--workers", "2"]
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=SRC_ENV, timeout=60, check=True)
    assert proc.stdout.split() == ["0", "1", "False"]

def test_importing_the_package_registers_every_module_and_runs_none():
    code = ("import sys, types, rainbowmatch; print(*(name for name, m in sys.modules.items() "
            "if name.startswith('rainbowmatch.') and type(m) is not types.ModuleType))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=SRC_ENV, timeout=60, check=True)
    assert {name.removeprefix("rainbowmatch.") for name in proc.stdout.split()} == PACKAGE_MODULES
    assert executed_modules() == ("None", set())


# what each command executes besides cli, core and errors, which every
# command runs; instances runs only where an instance is read or written,
# index only where a ground is indexed, and oracles only where an exact
# oracle takes members
COMMAND_MODULES = [
    (["extremal", "--name", "star", "--n", "3"], "0", {"extremal", "instances"}),
    (["nu", "--in", str(FIXTURES / "steal_q3_n6.json")], "0",
     {"instances", "index", "oracles"}),
    (["solve", "--algorithm", "oracle", "--in", str(FIXTURES / "star_n3_r2_k2.json")], "2",
     {"instances", "index", "oracles"}),
    # greedy and the size check read edge lists and index nothing
    (["solve", "--algorithm", "greedy", "--in", str(FIXTURES / "star_n3_r2_k2.json")], "2",
     {"instances", "solvers"}),
    (["check", "--in", str(FIXTURES / "steal_q3_n6.json")], "0", {"instances", "solvers"}),
    # the shifted solvers close on index masks and pull back with no oracle
    (["solve", "--algorithm", "hall", "--in", str(FIXTURES / "steal_q3_n6.json")], "2",
     {"instances", "solvers", "shifting", "index"}),
    (["solve", "--algorithm", "r3", "--in", str(CLI_GOLDENS / "in_r3_cube.json")], "0",
     {"instances", "solvers", "shifting", "index"}),
    (["shift", "--in", str(FIXTURES / "shift_in_partite_r2.json")], "0",
     {"instances", "shifting", "index"}),
    # a named instance is built, never read or written
    (["trace", "--name", "steal"], "0", {"extremal", "solvers", "shifting", "index"}),
    # random checks draw through sampling, close their samples with index's
    # closure plan, decide on index masks and read their thresholds from core;
    # a report without counterexamples writes no instance
    (["verify", "--conjecture", "size_condition", "--n", "3", "--k", "2", "--budget", "20"],
     "0", {"verify", "sampling", "index"}),
    (["verify", "--conjecture", "rainbow_general", "--n", "6", "--k", "2", "--budget", "20"],
     "0", {"verify", "sampling", "index"}),
    # off f_r2's closed form the general threshold is walked, taking matching
    # numbers
    (["verify", "--conjecture", "rainbow_general", "--n", "6", "--r", "3", "--k", "2",
      "--budget", "20"], "0", {"verify", "sampling", "index", "exhaustive", "oracles"}),
    # a degree-capped member is drawn raw, not closed
    (["verify", "--conjecture", "degree_condition", "--d", "1", "--n", "3", "--k", "2",
      "--budget", "20"], "0", {"verify", "sampling", "index"}),
    # exhaustive checks and thresholds walk shifted sets, draw nothing and
    # close nothing; only a threshold takes matching numbers, and it builds no
    # checker
    (["verify", "--conjecture", "size_condition", "--n", "2", "--k", "2", "--mode",
      "exhaustive"], "0", {"verify", "index", "exhaustive"}),
    (["verify", "--threshold", "g_partite", "--n", "3", "--k", "2"], "0",
     {"index", "exhaustive", "oracles"}),
    (["verify", "--conjecture", "matrix", "--n", "3", "--k", "2", "--budget", "20"], "0",
     {"verify", "sampling", "index"}),
    (["verify", "--conjecture", "matrix", "--n", "3", "--k", "2", "--mode", "exhaustive"], "0",
     {"verify", "index", "exhaustive"}),
]


@pytest.mark.parametrize("argv,status,modules", COMMAND_MODULES,
                         ids=[" ".join(argv[:3]) for argv, *_ in COMMAND_MODULES])
def test_each_command_executes_only_the_modules_it_runs(argv, status, modules):
    assert executed_modules(*argv) == (status, {"cli", "core", "errors"} | modules)


def test_a_listed_counterexample_executes_instances():
    # two different perfect matchings of K_{2,2} have no rainbow matching, and
    # a report lists each failing family as an instance
    argv = ["verify", "--conjecture", "degree_condition", "--d", "1", "--n", "2", "--k", "2",
            "--budget", "20"]
    assert executed_modules(*argv) == ("0", {"cli", "core", "errors", "verify", "sampling",
                                             "index", "instances"})


TRACED_CLI = Path(__file__).parent.parent / "perfbench" / "traced_cli.py"


def traced_spans(tmp_path, *argv):
    """The spans, (name, parent index), and the counts of one request run
    under perfbench's tracer, which wraps each traced function wherever the
    package holds it, the names verify forwards included. A span file is a
    JSON header line, then four int64 columns: name index, start, end and
    parent index."""
    out = tmp_path / "s.spans"
    proc = subprocess.run([sys.executable, str(TRACED_CLI), str(out), "0:req", *argv],
                          capture_output=True, text=True, env=SRC_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    with open(out, "rb") as fh:
        header = json.loads(fh.readline())
        columns = [array("q") for _ in range(4)]
        for column in columns:
            column.fromfile(fh, header["count"])
    names, _, _, parents = columns
    return [(header["names"][n], p) for n, p in zip(names, parents)], header["counts"]


@pytest.mark.skipif(not TRACED_CLI.is_file(), reason="needs perfbench/traced_cli.py")
@pytest.mark.parametrize("argv,span", [
    (["verify", "--threshold", "g_partite", "--n", "3", "--k", "2"],
     "verify.compute_threshold_exact"),
    (["verify", "--conjecture", "size_condition", "--n", "3", "--k", "2", "--mode", "exhaustive"],
     "verify.check_conjecture"),
], ids=["threshold", "exhaustive"])
def test_traced_walk_is_a_child_of_its_verify_span(tmp_path, argv, span):
    # the tracer replaces the walk and the threshold by their names on
    # verify, which forwards them to exhaustive: the walk that runs is the
    # wrapped one, each of its steps a child of the request's verify span
    spans, counts = traced_spans(tmp_path, *argv)
    walks = [parent for name, parent in spans if name == "verify._ideal_dfs"]
    assert [name for name, _ in spans].count(span) == 1
    assert walks and all(spans[parent][0] == span for parent in walks)
    assert counts["verify.ideals"] > 0


# The process entry, cli.run(): main's status, both streams flushed, and
# os._exit. The child's environment drops PYTHONUNBUFFERED, which would
# write every line at once and so hide a missing flush.
ENTRY_ENV = {**{k: v for k, v in SRC_ENV.items() if k != "PYTHONUNBUFFERED"}, "COLUMNS": "80"}
STAR_300 = ["extremal", "--name", "star", "--n", "300", "--r", "2", "--k", "40", "--format", "json"]


def run_entry(*argv, **kwargs):
    return subprocess.run([sys.executable, "-m", "rainbowmatch", *argv], capture_output=True,
                          env=ENTRY_ENV, timeout=60, **kwargs)


def test_entry_flushes_block_buffered_output_whole(capsys):
    code, out, err = run_cli(capsys, *STAR_300)
    proc = run_entry(*STAR_300)
    assert len(out) > 1 << 20
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")


@pytest.mark.parametrize("argv,status", [
    (["extremal", "--name", "star", "--n", "3"], 0),
    (["verify", "--threshold", "g_partite", "--n", "3", "--k", "2", "--format", "json"], 0),
    (["--help"], 0),
    (["solve", "--algorithm", "oracle", "--in", str(FIXTURES / "star_n3_r2_k2.json")], 2),
    (["verify", "--conjecture", "degree_condition", "--n", "300", "--k", "2", "--d", "100000",
      "--budget", "1"], 3),
    (["solve", "--algorithm", "bogus"], 3),
    (["nu", "--in", str(FIXTURES / "no-such-file.json")], 3),
], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else None)
def test_entry_answers_as_main_in_process(capsys, monkeypatch, argv, status):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage and help text to it
    try:
        code = main(argv)
    except SystemExit as exc:  # help and usage errors leave through argparse
        code = exc.code
    captured = capsys.readouterr()
    proc = run_entry(*argv, text=True)
    assert code == status
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)


@pytest.mark.parametrize("close", ["reader", "fd 1"])
def test_closed_output_exits_141_without_a_traceback(close):
    # the pipe: a reader that has closed before the first write, so every
    # write fails; fd 1 closed at start leaves sys.stdout None
    if close == "reader":
        read, write = os.pipe()
        os.close(read)
        kwargs = {"stdout": write, "stderr": subprocess.PIPE}
    else:
        kwargs = {"stdout": subprocess.DEVNULL, "stderr": subprocess.PIPE,
                  "preexec_fn": lambda: os.close(1)}
    try:
        proc = subprocess.run([sys.executable, "-m", "rainbowmatch", *STAR_300], env=ENTRY_ENV,
                              timeout=60, **kwargs)
    finally:
        if close == "reader":
            os.close(write)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_CLOSED_OUTPUT, b"")


UNBUFFERED_ENV = {**ENTRY_ENV, "PYTHONUNBUFFERED": "1"}


def test_unbuffered_output_arrives_whole(capsys):
    # unbuffered, a raw write to a pipe may take only part of its bytes
    code, out, err = run_cli(capsys, *STAR_300)
    proc = subprocess.run([sys.executable, "-m", "rainbowmatch", *STAR_300], capture_output=True,
                          env=UNBUFFERED_ENV, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), b"")


def test_unbuffered_output_closed_after_one_byte_exits_141():
    # the reader closes while the first write is under way: the rest of it
    # fails, where a dropped partial write used to end with status 0
    proc = subprocess.Popen([sys.executable, "-m", "rainbowmatch", *STAR_300],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=UNBUFFERED_ENV)
    assert len(proc.stdout.read(1)) == 1
    proc.stdout.close()
    stderr = proc.stderr.read()
    assert (proc.wait(timeout=60), stderr) == (cli.EXIT_CLOSED_OUTPUT, b"")


@pytest.mark.parametrize("argv,status", [
    (["extremal", "--name", "star", "--n", "3"], 0),
    (["nu", "--in", str(FIXTURES / "no-such-file.json")], 3),
    (["solve", "--algorithm", "bogus"], 3),
])
def test_closed_standard_error_keeps_the_status(argv, status):
    # messages are dropped; an error message no longer ends in an
    # AttributeError on the missing stream, exit 1
    proc = subprocess.run([sys.executable, "-m", "rainbowmatch", *argv], env=ENTRY_ENV,
                          stdout=subprocess.DEVNULL, timeout=60, preexec_fn=lambda: os.close(2))
    assert proc.returncode == status


def test_entry_reaps_every_worker_after_a_theorem_violation(tmp_path):
    # three workers on any host: the caller's first shard raises and two
    # forked children sleep in theirs, so a child the caller left running
    # would hold the output pipes open past the timeout
    pids = tmp_path / "pids"
    code = ("import os, sys, time\n"
            "from rainbowmatch import cli, sampling\n"
            "from rainbowmatch.errors import TheoremViolationError\n"
            "os.sched_getaffinity = lambda pid: {0, 1, 2}\n"
            "caller, run_shard, fork = os.getpid(), sampling._run_shard, os.fork\n"
            "pids = sys.argv[1]\n"
            "def forked():\n"
            "    pid = fork()\n"
            "    if pid:\n"
            "        with open(pids, 'a') as out:\n"
            "            out.write(f'{pid}\\n')\n"
            "    return pid\n"
            "def shard(args):\n"
            "    if os.getpid() != caller:\n"
            "        time.sleep(60)\n"
            "    if args[5] == 1:  # the warm-up trial, before the fork\n"
            "        return run_shard(args)\n"
            "    raise TheoremViolationError('planted')\n"
            "os.fork, sampling._run_shard = forked, shard\n"
            "sys.argv[1:] = ['verify', '--conjecture', 'size_condition', '--n', '3', '--k', '2',\n"
            "                '--budget', '1024', '--workers', '3']\n"
            "cli.run()\n")
    proc = subprocess.run([sys.executable, "-c", code, str(pids)], capture_output=True,
                          text=True, env=ENTRY_ENV, timeout=30)
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "theorem violation: planted\n"
    children = [int(pid) for pid in pids.read_text().split()]
    assert len(children) == 2
    for pid in children:
        with pytest.raises(ProcessLookupError):  # reaped: not even a zombie is left
            os.kill(pid, 0)
