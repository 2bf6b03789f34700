import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowmatch import (GENERAL, PARTITE, Family, GroundSet, Hypergraph,
                          InputError, Instance, parse_instance,
                          serialize_instance)
from rainbowmatch.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
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

    def test_stdin_input(self, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(
            '{"kind":"partite","r":2,"n":2,"families":[[[1,1]]]}'))
        code, out, _ = run_cli(capsys, "nu")
        assert code == 0 and out == "F_1: nu = 1\n"
