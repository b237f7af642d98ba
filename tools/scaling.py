"""Growth of the recognition path per doubling of n.

Recognizes relabeled optimal drums (``gen_optimal(k)`` under a seeded
random vertex permutation, edges shuffled), k = 256 .. 4096, and writes
``BENCH_scaling.json``:

- per stage, the best time of ``--rounds`` runs with the collector off:
  ``is_biconnected``, ``list_k4``, ``bucket_by_edge``,
  ``embed_from_kites`` (whole, and its ``NicEmbedding`` construction
  alone), ``verify_nic`` (whole, and its ``face_walk`` alone) and
  ``recognize_optimal`` end to end;
- the whole ``cli.main(["recognize", <file>])``, best of ``--rounds``,
  with the collector as the command sets it, and for that run the
  collections per generation and their time, read through
  ``gc.callbacks``;
- each stage's per-doubling ratios (time at 2k over time at k);
- the Python and networkx versions and the CPU count.

The sizes are interleaved, one run of every size per round, so a slow
spell of the machine spreads over all of them instead of one.  Run from
the repository root:

    python3 tools/scaling.py [--rounds 5] [--seed 1] [--out BENCH_scaling.json]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from nicplanar.cli import main as cli_main  # noqa: E402
from nicplanar.embedding import NicEmbedding, verify_nic  # noqa: E402
from nicplanar.faces import face_walk  # noqa: E402
from nicplanar.generate import gen_optimal  # noqa: E402
from nicplanar.graph import is_biconnected, parse_graph  # noqa: E402
from nicplanar.k4 import bucket_by_edge, list_k4  # noqa: E402
from nicplanar.recognize import (  # noqa: E402
    DEFAULT_STEP_CAP_MULTIPLIER,
    embed_from_kites,
    recognize_optimal,
)

SIZES = (256, 512, 1024, 2048, 4096)
STAGES = ("is_biconnected", "list_k4", "bucket_by_edge", "embed_from_kites",
          "NicEmbedding", "verify_nic", "face_walk", "recognize_optimal")


def relabeled_drum(k: int, rng: random.Random) -> bytes:
    """The k-column drum as an edge list, relabeled and shuffled."""
    g = gen_optimal(k).graph
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in g.edges]
    rng.shuffle(edges)
    lines = [str(g.n)] + [f"{u} {v}" for u, v in edges]
    return ("\n".join(lines) + "\n").encode("ascii")


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def stage_times(data: bytes) -> dict[str, float]:
    """One run of each stage on the graph in ``data``, collector off."""
    g = parse_graph(data)
    out = {}
    out["is_biconnected"], _ = _timed(is_biconnected, g)
    out["list_k4"], catalog = _timed(
        list_k4, g, DEFAULT_STEP_CAP_MULTIPLIER * g.n)
    out["bucket_by_edge"], _ = _timed(bucket_by_edge, catalog)
    out["recognize_optimal"], res = _timed(recognize_optimal, g)
    out["embed_from_kites"], emb = _timed(embed_from_kites, g, res.kites)
    pairs = [entry.pair for entry in emb.registry]
    rotations = emb.rotations
    out["NicEmbedding"], fresh = _timed(NicEmbedding, g, pairs, rotations)
    out["verify_nic"], report = _timed(verify_nic, fresh)
    if not report.ok:
        raise AssertionError(report.summary())
    out["face_walk"], _ = _timed(face_walk, rotations)
    return out


def cli_time(path: str) -> tuple[float, dict]:
    """One ``nicplanar recognize`` run in process, collector on, and the
    collections it triggered."""
    counts, spent, started = [0, 0, 0], [0.0, 0.0, 0.0], [0.0]

    def watch(phase, info):
        if phase == "start":
            started[0] = time.perf_counter()
        else:
            gen = info["generation"]
            counts[gen] += 1
            spent[gen] += time.perf_counter() - started[0]

    out = io.StringIO()
    gc.collect()
    gc.callbacks.append(watch)
    try:
        with contextlib.redirect_stdout(out):
            elapsed, code = _timed(cli_main, ["recognize", path])
    finally:
        gc.callbacks.remove(watch)
    if code != 0:
        raise AssertionError(f"recognize exited {code} on {path}")
    return elapsed, {"collections": counts,
                     "collector_s": [round(s, 4) for s in spent]}


def measure(rounds: int, seed: int, workdir: str) -> dict:
    rng = random.Random(seed)
    files, shape = {}, {}
    for k in SIZES:
        data = relabeled_drum(k, rng)
        files[k] = os.path.join(workdir, f"drum-{k}.txt")
        Path(files[k]).write_bytes(data)
        g = parse_graph(data)
        shape[k] = {"n": g.n, "m": g.m, "crossings": g.m - (3 * g.n - 6)}
    best = {k: dict.fromkeys(STAGES, float("inf")) for k in SIZES}
    cli = {k: (float("inf"), None) for k in SIZES}
    for _ in range(rounds):
        for k in SIZES:
            data = Path(files[k]).read_bytes()
            gc.collect()
            gc.disable()
            try:
                times = stage_times(data)
            finally:
                gc.enable()
            for stage, t in times.items():
                best[k][stage] = min(best[k][stage], t)
            elapsed, collections = cli_time(files[k])
            if elapsed < cli[k][0]:
                cli[k] = (elapsed, collections)
    rows = []
    for k in SIZES:
        row = {"k": k, **shape[k],
               "stages_s": {s: round(t, 5) for s, t in best[k].items()},
               "cli_recognize_s": round(cli[k][0], 4)}
        row.update(cli[k][1])
        rows.append(row)
    ratios = {}
    for stage in (*STAGES, "cli_recognize"):
        series = [row["cli_recognize_s"] if stage == "cli_recognize"
                  else row["stages_s"][stage] for row in rows]
        ratios[stage] = [round(b / a, 2) for a, b in zip(series, series[1:])]
    return {"sizes": rows, "per_doubling": ratios}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default=str(ROOT / "BENCH_scaling.json"))
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        result = measure(args.rounds, args.seed, workdir)
    result["settings"] = {
        "rounds": args.rounds,
        "seed": args.seed,
        "stages": "best of rounds, collector off",
        "cli_recognize": "best of rounds, collector as the CLI sets it; "
                         "collections and collector_s per generation of "
                         "that run",
    }
    result["machine"] = {
        "python": platform.python_version(),
        "networkx": version("networkx"),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }
    Path(args.out).write_text(json.dumps(result, indent=1, sort_keys=True)
                              + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
