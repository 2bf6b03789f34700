import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowmatch import (GENERAL, PARTITE, Family, GroundSet, Hypergraph,
                          InputError, Instance, parse_instance,
                          serialize_instance)
from rainbowmatch.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
CLI_GOLDENS = FIXTURES / "cli"
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}


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

    def test_each_edge_is_validated_once(self, monkeypatch):
        checked = []
        original = GroundSet.check_edge

        def counting(self, edge):
            checked.append(tuple(edge))
            return original(self, edge)

        monkeypatch.setattr(GroundSet, "check_edge", counting)
        inst = parse_instance((FIXTURES / "steal_q3_n6.json").read_text())
        parsed = len(checked)
        fam = inst.to_family()
        assert parsed <= sum(map(len, fam))  # at most once per edge while parsing
        assert len(checked) == parsed  # and not again: to_family trusts the parser

    def test_hand_built_instance_is_validated(self):
        with pytest.raises(InputError, match="out of range"):
            Instance(GroundSet(PARTITE, 2, 2), (((0, 0), (0, 2)),))
        with pytest.raises(InputError, match="duplicate"):
            Instance(GroundSet(PARTITE, 2, 2), (((0, 0), (0, 0)),))

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

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_verify_workers_below_one_exit(self, capsys, workers):
        code, out, err = run_cli(capsys, "verify", "--conjecture", "size_condition",
                                 "--n", "2", "--k", "2", "--budget", "10",
                                 "--workers", workers)
        assert code == 3 and out == "" and "workers" in err

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
