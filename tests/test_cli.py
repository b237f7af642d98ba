"""Command line behaviour: exit codes, stream discipline, byte stability.

Machine output must land on stdout only, diagnostics on stderr only, and
two runs over the same input must produce identical bytes.  Tests drive
`main` in-process; one test goes through the installed console script to
cover the packaging entry point.
"""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest
from bipyramids import DOUBLE_J3

import nicplanar
import nicplanar.cli as cli
import nicplanar.graph as graph_module
from nicplanar.cli import main
from nicplanar.embedding import embedding_to_doc, embedding_to_json
from nicplanar.generate import gen_optimal, gen_sparsest
from nicplanar.graph import new_graph, serialize_graph
from nicplanar.recognize import recognize_optimal

K5_EDGE_LIST = "5\n" + "\n".join(
    f"{u} {v}" for u in range(5) for v in range(u + 1, 5)) + "\n"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def opt2_graph_file(tmp_path):
    path = tmp_path / "opt2.g6"
    path.write_bytes(serialize_graph(gen_optimal(2).graph, "graph6"))
    return str(path)


@pytest.fixture
def opt2_embedding_file(tmp_path):
    path = tmp_path / "opt2.emb.json"
    path.write_text(embedding_to_json(gen_optimal(2).embedding))
    return str(path)


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(K5_EDGE_LIST)
    return str(path)


class TestRecognize:
    def test_accepted_prints_embedding(self, opt2_graph_file, capsys):
        code, out, err = run_cli(
            ["recognize", opt2_graph_file, "--format", "graph6"], capsys)
        assert code == 0
        assert err == ""
        doc = json.loads(out)
        assert doc["n"] == 12
        assert len(doc["crossings"]) == 6

    def test_rejected_reason_on_stderr(self, k5_file, capsys):
        code, out, err = run_cli(["recognize", k5_file], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("EdgeCountMismatch: 5m = 50")

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "sys.stdin",
            SimpleNamespace(buffer=io.BytesIO(K5_EDGE_LIST.encode())))
        code, out, err = run_cli(["recognize", "-"], capsys)
        assert code == 1
        assert "EdgeCountMismatch" in err

    def test_multiple_inputs_one_row_each(self, opt2_graph_file, k5_file,
                                          tmp_path, capsys):
        k5_g6 = tmp_path / "k5.g6"
        k5_g6.write_bytes(serialize_graph(
            new_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
            "graph6"))
        code, out, err = run_cli(
            ["recognize", opt2_graph_file, str(k5_g6), "--format", "graph6"],
            capsys)
        assert code == 1
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["accepted"] for r in rows] == [True, False]
        assert rows[0]["input"] == opt2_graph_file
        assert rows[1]["reason"] == "EdgeCountMismatch"

    def test_parallel_jobs_keep_input_order(self, opt2_graph_file, capsys):
        serial = run_cli(
            ["recognize", opt2_graph_file, opt2_graph_file,
             "--format", "graph6"], capsys)
        parallel = run_cli(
            ["recognize", opt2_graph_file, opt2_graph_file,
             "--format", "graph6", "--jobs", "2"], capsys)
        assert serial[0] == parallel[0] == 0
        assert serial[1] == parallel[1]

    def test_out_file(self, opt2_graph_file, tmp_path, capsys):
        target = tmp_path / "result.json"
        code, out, _ = run_cli(
            ["recognize", opt2_graph_file, "--format", "graph6",
             "--out", str(target)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["n"] == 12

    def test_missing_file_is_an_input_error(self, capsys):
        code, out, err = run_cli(["recognize", "/no/such/file"], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_byte_identical_runs(self, opt2_graph_file, capsys):
        first = run_cli(
            ["recognize", opt2_graph_file, "--format", "graph6"], capsys)
        second = run_cli(
            ["recognize", opt2_graph_file, "--format", "graph6"], capsys)
        assert first == second

    def test_stdout_is_the_embedding_json(self, opt2_graph_file, capsys):
        code, out, _ = run_cli(
            ["recognize", opt2_graph_file, "--format", "graph6"], capsys)
        assert code == 0
        emb = recognize_optimal(gen_optimal(2).graph).embedding
        assert out == embedding_to_json(emb) + "\n"

    def test_batch_keeps_rows_past_a_bad_input(self, opt2_graph_file,
                                               tmp_path, capsys):
        garbled = tmp_path / "garbled.g6"
        garbled.write_bytes(b"!!")
        missing = str(tmp_path / "missing.g6")
        code, out, err = run_cli(
            ["recognize", opt2_graph_file, str(garbled), missing,
             "--format", "graph6"], capsys)
        assert code == 2
        rows = [json.loads(line) for line in out.splitlines()]
        assert [r["input"] for r in rows] == [opt2_graph_file, str(garbled),
                                              missing]
        assert rows[0]["accepted"] is True
        for row in rows[1:]:
            assert set(row) == {"input", "accepted", "reason", "diagnostics",
                                "embedding"}
            assert row["accepted"] is False
            assert row["reason"] == "InputError"
            assert row["embedding"] is None
            assert set(row["diagnostics"]) == {"message"}
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith(f"error: {garbled}: ")
        assert lines[1].startswith(f"error: {missing}: ")

    @pytest.mark.parametrize("jobs, inputs, cpus, expected", [
        (8, 3, 64, 3),
        (8, 5, 2, 2),
        (2, 5, None, None),
        (2, 5, 1, None),
        (2, 20, 2, 2),
    ])
    def test_pool_size_is_clamped(self, opt2_graph_file, monkeypatch, capsys,
                                  jobs, inputs, cpus, expected):
        started = []
        chunks = []

        class FakePool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                chunks.append(chunksize)
                return map(fn, tasks)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, _ = run_cli(
            ["recognize", *[opt2_graph_file] * inputs, "--format", "graph6",
             "--jobs", str(jobs)], capsys)
        assert code == 0
        assert len(out.splitlines()) == inputs
        assert started == ([] if expected is None else [expected])
        # about four chunks per worker
        assert chunks == ([] if expected is None
                          else [-(-inputs // (4 * expected))])


class TestVerify:
    def test_passing_report(self, opt2_embedding_file, capsys):
        code, out, _ = run_cli(["verify", opt2_embedding_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["violations"] == []
        assert "dummy-alternation" in doc["checked"]

    def test_maximal_mode(self, opt2_embedding_file, capsys):
        code, out, _ = run_cli(
            ["verify", opt2_embedding_file, "--maximal"], capsys)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_failing_embedding(self, tmp_path, capsys):
        # two crossings flanking the edge 0-1 share both its endpoints
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 6,
            "edges": [[0, 1], [0, 2], [0, 4], [1, 3], [1, 5], [2, 3], [4, 5]],
            "crossings": [{"pair": [[0, 2], [1, 3]]},
                          {"pair": [[0, 4], [1, 5]]}],
            "rotations": {"0": [1, "x1", "x0"], "1": [0, "x0", "x1"],
                          "2": [3, "x0"], "3": [2, "x0"], "4": [5, "x1"],
                          "5": [4, "x1"], "x0": [0, 3, 2, 1],
                          "x1": [0, 5, 4, 1]}}))
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["violations"][0]["rule"] == "crossing-pairs-share-le-one"

    def test_single_vertex_has_one_face(self, tmp_path, capsys):
        path = tmp_path / "one.json"
        path.write_text('{"n": 1, "edges": [], "crossings": [], "rotations": {}}')
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 0 and json.loads(out)["ok"] is True
        code, out, _ = run_cli(["export", "--format", "svg", str(path)], capsys)
        assert code == 0 and "<circle" in out and ">0</text>" in out
        code, out, err = run_cli(["dual", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: face (0,) has 1 corners, expected 3\n"
        # no vertex, no face: Euler's formula still rejects it
        path.write_text('{"n": 0, "edges": [], "crossings": [], "rotations": {}}')
        code, out, _ = run_cli(["verify", str(path)], capsys)
        assert code == 1
        assert json.loads(out)["violations"] == [{
            "rule": "spherical",
            "message": "face count 0 violates Euler's formula (n=0, m=0)"}]

    def test_malformed_crossings_are_an_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "edges": [], "crossings": 5, "rotations": {}}')
        code, out, err = run_cli(["verify", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err == "error: 'crossings' must be an array\n"


class TestDual:
    def test_json_analysis(self, opt2_embedding_file, capsys):
        code, out, _ = run_cli(["dual", opt2_embedding_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["census"] == {"kite": 6, "tetrahedron": 0, "triangle": 8}
        assert doc["rules"]["ok"] is True
        assert doc["structure"] == []
        assert doc["accounting"]["grand_total"] == "24"
        assert set(doc["accounting"]["totals"]) == {"4"}
        assert len(doc["nodes"]) == 14
        assert all(set(l) == {"a", "b", "via"} for l in doc["links"])

    def test_dot_output(self, opt2_embedding_file, capsys):
        code, out, _ = run_cli(
            ["dual", opt2_embedding_file, "--format", "dot"], capsys)
        assert code == 0
        assert out.startswith("graph dual {")
        assert "shape=diamond" in out and "shape=triangle" in out

    def test_tetrahedron_shape(self, tmp_path, capsys):
        path = tmp_path / "sparse.json"
        path.write_text(embedding_to_json(gen_sparsest(1).embedding))
        code, out, _ = run_cli(["dual", str(path), "--format", "dot"], capsys)
        assert code == 0
        assert "shape=house" in out

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_non_nic_embedding_is_refused(self, tmp_path, capsys, fmt):
        # edge 0-1 sits in two crossing pairs
        path = tmp_path / "double.json"
        path.write_text(json.dumps(DOUBLE_J3))
        code, out, err = run_cli(["dual", str(path), "--format", fmt], capsys)
        assert (code, out) == (2, "")
        assert err == (
            "error: not a NIC embedding: 2 violation(s):\n"
            "  [edge-crossed-once] edge (0, 1) appears in two crossings\n"
            "  [crossing-pairs-share-le-one] crossing pairs ((0, 1), (2, 5)) "
            "and ((0, 1), (3, 4)) share vertices [0, 1]\n")


class TestCollector:
    """``main`` runs a command under ``GC_THRESHOLDS`` and gives the caller
    back its own thresholds on every exit, with the collector as it was."""

    CALLER = (321, 7, 9)

    @pytest.fixture(autouse=True)
    def caller_thresholds(self):
        saved = gc.get_threshold()
        gc.set_threshold(*self.CALLER)
        yield
        gc.set_threshold(*saved)

    @pytest.mark.parametrize("argv, code", [
        (["density", "K5"], 0),
        (["recognize", "K5"], 1),
        (["generate", "optimal", "--k", "1"], 2),  # NicplanarError
        (["recognize", "missing.txt"], 2),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_thresholds_restored_on_return(self, k5_file, capsys, argv,
                                           code, enabled):
        argv = [k5_file if arg == "K5" else arg for arg in argv]
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            assert main(argv) == code
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()
        assert gc.get_threshold() == self.CALLER

    @pytest.mark.parametrize("argv", [
        ["no-such-command"],  # argparse, before the command runs
        ["generate", "intermediate", "--k", "2"],  # inside the command
    ])
    def test_thresholds_restored_on_system_exit(self, capsys, argv):
        with pytest.raises(SystemExit):
            main(argv)
        assert gc.isenabled()
        assert gc.get_threshold() == self.CALLER

    def test_command_runs_under_the_relaxed_thresholds(self, k5_file,
                                                       monkeypatch, capsys):
        seen = []

        def spy(*args, **kwargs):
            seen.append((gc.get_threshold(), gc.isenabled()))
            return recognize_optimal(*args, **kwargs)

        monkeypatch.setattr(cli, "recognize_optimal", spy)
        assert main(["recognize", k5_file]) == 1
        assert seen == [(cli.GC_THRESHOLDS, True)]


class TestDensity:
    def test_inside_the_sandwich(self, k5_file, capsys):
        code, out, _ = run_cli(["density", k5_file], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc == {"at_optimal": False, "at_sparsest": False,
                       "five_m": 50, "lower": 48, "lower_ok": True,
                       "m": 10, "n": 5, "upper": 54, "upper_ok": True,
                       "within": True}

    def test_above_the_sandwich(self, tmp_path, capsys):
        path = tmp_path / "k6.txt"
        path.write_text("6\n" + "\n".join(
            f"{u} {v}" for u in range(6) for v in range(u + 1, 6)) + "\n")
        code, out, _ = run_cli(["density", str(path)], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["upper_ok"] is False and doc["within"] is False

    def test_optimal_boundary(self, opt2_graph_file, capsys):
        code, out, _ = run_cli(
            ["density", opt2_graph_file, "--format", "graph6"], capsys)
        assert code == 0
        assert json.loads(out)["at_optimal"] is True

    def test_oversized_vertex_count_is_an_input_error(self, tmp_path,
                                                      monkeypatch, capsys):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 8)
        path = tmp_path / "big.txt"
        path.write_text("9\n")
        code, out, err = run_cli(["density", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: vertex count 9 exceeds the limit 8")


class TestGenerate:
    def test_optimal_document(self, capsys):
        code, out, _ = run_cli(["generate", "optimal", "--k", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "optimal"
        assert (doc["n"], doc["m"]) == (12, 36)
        assert doc["params"] == {"k": 2, "m": 36, "n": 12}
        assert len(doc["embedding"]["crossings"]) == 6
        from nicplanar.graph import parse_graph
        g = parse_graph(doc["graph6"], "graph6")
        assert [list(e) for e in g.edges] == doc["embedding"]["edges"]

    def test_embedding_field_is_the_embedding_doc(self, capsys):
        code, out, _ = run_cli(["generate", "sparsest", "--k", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["embedding"] == embedding_to_doc(gen_sparsest(2).embedding)

    def test_byte_identical_runs(self, capsys):
        first = run_cli(["generate", "nested-k5", "--k", "3"], capsys)
        second = run_cli(["generate", "nested-k5", "--k", "3"], capsys)
        assert first == second

    def test_missing_parameter(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "intermediate", "--k", "2"])
        assert exc.value.code == 2
        assert "--i is required" in capsys.readouterr().err

    def test_bad_parameter_is_an_input_error(self, capsys):
        code, out, err = run_cli(["generate", "optimal", "--k", "1"], capsys)
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_oversized_member_is_an_input_error(self, monkeypatch, capsys):
        monkeypatch.setattr(graph_module, "MAX_VERTICES", 16)
        code, out, err = run_cli(["generate", "optimal", "--k", "3"], capsys)
        assert code == 2
        assert out == ""
        assert err == ("error: the requested member has 17 vertices, "
                       "above the limit 16\n")

    def test_render_file(self, tmp_path, capsys):
        target = tmp_path / "drawing.svg"
        code, _, _ = run_cli(
            ["generate", "sparsest", "--k", "1", "--render", str(target),
             "--out", str(tmp_path / "doc.json")], capsys)
        assert code == 0
        assert target.read_text().startswith("<svg")


class TestOracle:
    def test_k4_both_embeddings(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        path.write_text("4\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
        code, out, _ = run_cli(["oracle", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["kite_sets"] == [[], [[0, 1, 2, 3]]]

    def test_optimal_variant_infeasible(self, k5_file, capsys):
        code, out, _ = run_cli(["oracle", k5_file, "--optimal"], capsys)
        assert code == 1
        assert json.loads(out)["feasible"] is False

    def test_limit_violation(self, tmp_path, capsys):
        path = tmp_path / "ring.txt"
        path.write_text("13\n" + "\n".join(
            f"{i} {(i + 1) % 13}" for i in range(13)) + "\n")
        code, out, err = run_cli(["oracle", str(path)], capsys)
        assert code == 2
        assert "size limit 12" in err
        code, out, _ = run_cli(
            ["oracle", str(path), "--limit", "13"], capsys)
        assert code == 0
        assert json.loads(out)["kite_sets"] == [[]]


class TestExport:
    def test_dot(self, opt2_embedding_file, capsys):
        code, out, _ = run_cli(["export", opt2_embedding_file], capsys)
        assert code == 0
        assert out.startswith("graph planarization {")
        assert "shape=square" in out
        assert "x0 --" in out or "-- x0" in out

    def test_svg(self, opt2_embedding_file, capsys):
        code, out, _ = run_cli(
            ["export", opt2_embedding_file, "--format", "svg"], capsys)
        assert code == 0
        assert out.startswith("<svg")
        assert "<rect" in out and "<circle" in out


def test_console_script_round_trip(tmp_path):
    doc = subprocess.run(
        [sys.executable, "-m", "nicplanar.cli", "generate", "optimal",
         "--k", "3"],
        capture_output=True, text=True, check=True)
    payload = json.loads(doc.stdout)
    graph_file = tmp_path / "opt3.g6"
    graph_file.write_text(payload["graph6"])
    result = subprocess.run(
        [sys.executable, "-m", "nicplanar.cli", "recognize", str(graph_file),
         "--format", "graph6"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert json.loads(result.stdout)["n"] == 17


NO_NETWORKX_SCRIPT = """
import json
import sys
from nicplanar.cli import main
drum, out, *rejects = sys.argv[1:]
codes = [main(["recognize", drum, "--out", out]),
         main(["recognize", *rejects, "--out", out])]
print(json.dumps({"codes": codes, "networkx": "networkx" in sys.modules}))
"""


def test_recognize_does_not_import_networkx(tmp_path, k5_file):
    # an optimal drum is accepted and a batch of rejections is screened
    # without the planarity test, so networkx is never imported
    g = gen_optimal(4).graph
    drum = tmp_path / "drum.txt"
    drum.write_bytes(serialize_graph(g, "edge-list"))
    missing = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                   if (u, v) not in g.edge_set)
    moved = tmp_path / "moved.txt"
    moved.write_bytes(serialize_graph(
        new_graph(g.n, list(g.edges[1:]) + [missing]), "edge-list"))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nicplanar.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX_SCRIPT, str(drum),
         str(tmp_path / "out.json"), k5_file, str(moved)],
        capture_output=True, text=True, env=env, check=True)
    assert json.loads(result.stdout) == {"codes": [0, 1], "networkx": False}


NO_NETWORKX_ANALYSIS_SCRIPT = """
import contextlib
import io
import json
import sys
from nicplanar.cli import main
emb, *members = sys.argv[1:]
codes = []
for member in members:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        codes.append(main(["generate", *member.split()]))
    with open(emb, "w") as fh:
        json.dump(json.loads(out.getvalue())["embedding"], fh)
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes += [main(["verify", "--maximal", emb]), main(["dual", emb])]
print(json.dumps({"codes": codes, "networkx": "networkx" in sys.modules}))
"""

#: one member of every family, each construction of the sparsest and the
#: intermediate families included
FAMILY_MEMBERS = [
    "optimal --k 5",
    "sparsest --k 1", "sparsest --k 2", "sparsest --k 3",
    "intermediate --k 2 --i 1", "intermediate --k 4 --i 2",
    "intermediate --k 2 --i 3", "intermediate --k 2 --i 4",
    "nested-k5 --k 3 --variant 1",
    "rac-counterexample",
]


def test_analysis_does_not_import_networkx(tmp_path):
    # every family lists its own faces, and the dual's planarity follows
    # from its construction, so none of the runs tests planarity
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(nicplanar.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", NO_NETWORKX_ANALYSIS_SCRIPT,
         str(tmp_path / "member.json"), *FAMILY_MEMBERS],
        capture_output=True, text=True, env=env, check=True)
    # the RAC witness has 4-faces: verify --maximal rejects it (1) and
    # dual refuses it (2)
    expected = [0, 0, 0] * (len(FAMILY_MEMBERS) - 1) + [0, 1, 2]
    assert json.loads(result.stdout) == {"codes": expected, "networkx": False}
