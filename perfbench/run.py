"""Benchmark of the nicplanar command line, run in process.

Usage, from the repository root:

    python3 perfbench/run.py --workload recognize-optimal --seed 1 \\
        --seconds 35 --trace 0

Each operation calls ``nicplanar.cli.main`` with stdout captured, so its
wall time is the command's own work; the cold import of
``nicplanar.cli``, timed in fresh interpreters between passes, is
reported once, as ``setup_s``.  A run repeats whole passes over the
workload's commands until ``--seconds`` have gone by, then checks every
distinct output with ``checks.py``.  ``--trace 1`` wraps the package's
public functions (``spans.py``) and reports per-layer calls, self times
and counts instead of the end-to-end metrics.  The last line of stdout
is the JSON result; the line before it gives every command's wall time
in every pass and every import probe's time, for reference.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from checks import (certify_rejection, check_batch, check_dual, check_generated,
                    check_recognized_drum, check_verify, require)
from inputs import (dense_core, maximal_planar, moved_edge_drum, n7_graph,
                    relabeled_drum)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: an untraced run times the cold import before its first pass and before
#: each pass that starts at least this long after the last such probe;
#: ``setup_s`` is the best, so one slow spell of the machine does not set it
PROBE_GAP_S = 3.0
_IMPORT_TIMER = ("import time; t = time.perf_counter(); import nicplanar.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Wall time of ``import nicplanar.cli`` in a fresh interpreter."""
    # bytecode may be written, so that after the first probe the import
    # costs what it costs an installed package, whatever this shell sets
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = SRC
    return float(subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER], env=env, check=True,
        capture_output=True, text=True, timeout=60).stdout)


@dataclass
class Op:
    """One CLI command; a batch counts as one operation per input row."""

    label: str
    argv: list[str]
    rc: int
    check: Callable[[str], object]
    rows: int = 1
    #: runs in this process and counts in ``pass_s``; an untimed command
    #: feeds only a traced metric and runs only with ``--trace 1``
    timed: bool = True
    #: called on each new output as soon as the command returns, for what
    #: later commands read; the checks themselves wait for the run's end
    save: Callable[[str], None] | None = None


# --- workloads ---

RECOGNIZE_SIZES = (256, 512, 1024, 2048)


def recognize_optimal(rng: random.Random, work: str) -> list[Op]:
    ops = []
    for k in RECOGNIZE_SIZES:
        g = relabeled_drum(k, rng)
        path = _write(work, f"{g.name}.txt", g.edge_list_text())
        ops.append(Op(f"recognize k={k}", ["recognize", path], 0,
                      lambda out, g=g: check_recognized_drum(out, g)))
    return ops


def screen_batch(rng: random.Random, work: str) -> list[Op]:
    # the sizes are fixed so that every seed costs the same; the seed
    # draws the graphs themselves and their order
    specs = [(n7_graph, i) for i in range(400)]
    specs += [(maximal_planar, i, 8 + 392 * i // 299) for i in range(300)]
    moved_sizes = [2 + i % 19 for i in range(230)]
    moved_sizes += [21 + 179 * i // 16 for i in range(17)] + [500, 1000]
    specs += [(moved_edge_drum, i, k) for i, k in enumerate(moved_sizes)]
    for i in range(50):
        k = 2 + 98 * i // 49
        # the largest clique that, with two edges per other vertex, fits 18k
        fits = max(c for c in range(7, 13)
                   if c * (c - 1) // 2 + 2 * (5 * k + 2 - c) <= 18 * k)
        specs.append((dense_core, i, k, 7 + i % (fits - 6)))
    rng.shuffle(specs)
    paths, kinds = [], []
    for make, *params in specs:
        # one graph at a time, so that holding the inputs does not set
        # the peak memory that the commands are measured by
        g = make(*params, rng)
        certify_rejection(g)
        paths.append(_write(work, f"{g.name}.txt", g.edge_list_text()))
        kinds.append(g.kind)
    check = lambda out: check_batch(out, paths, kinds)  # noqa: E731
    return [
        Op("recognize batch --jobs 1", ["recognize", *paths, "--jobs", "1"],
           1, check, rows=len(paths)),
        Op("recognize batch --jobs 2", ["recognize", *paths, "--jobs", "2"],
           1, check, rows=len(paths), timed=False),
    ]


#: (family, generate arguments, whether the dual is analysed)
FAMILY_MEMBERS = (
    ("optimal", {"k": 12}, True),
    ("optimal", {"k": 30}, True),
    ("optimal", {"k": 400}, False),
    ("sparsest", {"k": 12}, True),
    ("sparsest", {"k": 24}, True),
    ("sparsest", {"k": 100}, False),
    ("intermediate", {"k": 12, "i": 1}, True),
    ("intermediate", {"k": 12, "i": 2}, True),
    ("intermediate", {"k": 12, "i": 3}, True),
    ("intermediate", {"k": 14, "i": 4}, True),
    ("intermediate", {"k": 100, "i": 1}, False),
    ("intermediate", {"k": 100, "i": 2}, False),
    ("intermediate", {"k": 100, "i": 3}, False),
    ("intermediate", {"k": 102, "i": 4}, False),
    ("nested-k5", {"k": 4}, True),
    ("nested-k5", {"k": 6}, True),
    ("nested-k5", {"k": 40}, False),
    ("rac-counterexample", {}, True),
)


def maximal_families(rng: random.Random, work: str) -> list[Op]:
    ops = []
    members = list(FAMILY_MEMBERS)
    rng.shuffle(members)
    for family, params, with_dual in members:
        params = dict(params)
        if family == "nested-k5":
            params["variant"] = rng.randrange(2 ** (params["k"] - 1))
        argv = ["generate", family]
        for key, value in params.items():
            argv += [f"--{key}", str(value)]
        label = " ".join(argv[1:])
        path = os.path.join(work, label.replace(" ", "_") + ".json")
        counts: dict = {}

        def save(out, path=path):
            _write(os.path.dirname(path), os.path.basename(path),
                   json.dumps(json.loads(out)["embedding"]))

        def generated(out, family=family, params=params, counts=counts):
            counts.update(check_generated(out, family, params))

        maximal = family != "rac-counterexample"
        ops.append(Op(f"generate {label}", argv, 0, generated, save=save))
        ops.append(Op(f"verify --maximal {label}",
                      ["verify", "--maximal", path], 0 if maximal else 1,
                      lambda out, m=maximal: check_verify(out, m)))
        if with_dual:
            ops.append(Op(
                f"dual {label}", ["dual", path], 0 if maximal else 2,
                (lambda out, f=family, c=counts: check_dual(out, f, c))
                if maximal else _expect_empty))
    return ops


WORKLOADS = {"recognize-optimal": recognize_optimal,
             "screen-batch": screen_batch,
             "maximal-families": maximal_families}


def _expect_empty(out: str) -> None:
    require(out == "", "dual wrote a document for a non-maximal embedding")


def _write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


# --- running ---


class Runner:
    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        #: (label, exit code, output digest) -> (op, exit code, stdout,
        #: stderr), for each distinct output, in the order first seen
        self.outputs: dict[tuple, tuple] = {}
        #: (label, exit code, output digest) -> input rows that gave it
        self.rows: Counter = Counter()

    def run(self, op: Op, op_id: int) -> float:
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            # a --jobs 2 batch runs its rows in worker processes, out of
            # the tracer's sight: keep its one cli.main span out of the layers
            self.tracer.op = op_id if op.timed else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed operation, not a stop
            rc = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        text = out.getvalue()
        if self.tracer is not None and op.timed:
            self.tracer.counts["cli.output_bytes"] += len(text.encode())
        key = (op.label, rc, hashlib.sha1(text.encode()).hexdigest())
        if key not in self.outputs:
            self.outputs[key] = (op, rc, text, err.getvalue())
            if op.save is not None and rc == op.rc:
                with contextlib.suppress(Exception):  # the check reports it
                    op.save(text)
        self.rows[key] += op.rows
        return elapsed

    def verdicts(self) -> tuple[int, int, list[str]]:
        """Check each distinct output once: (attempted, failed, failures).

        Outputs are checked in the order first seen, so a ``generate``
        check fills the counts its ``dual`` check reads.
        """
        failed, failures = 0, []
        for key, (op, rc, text, err) in self.outputs.items():
            verdict = self._verdict(op, rc, text, err)
            if verdict is not None:
                failed += self.rows[key]
                failures.append(f"{op.label}: {verdict}")
        return sum(self.rows.values()), failed, failures

    @staticmethod
    def _verdict(op: Op, rc, text: str, err: str) -> str | None:
        if rc != op.rc:
            return f"exit {rc!r}, expected {op.rc} ({err.strip()[:200]})"
        try:
            op.check(text)
        except Exception as exc:  # any malformed output fails the check
            return f"{type(exc).__name__}: {exc}"
        return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(SRC, "nicplanar")):
        print(f"no nicplanar sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import nicplanar.cli as cli
    from spans import Tracer, metric_names

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()

    work = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        ops = [op for op in WORKLOADS[args.workload](random.Random(args.seed),
                                                     work)
               if op.timed or tracer is not None]
        runner = Runner(cli, tracer)
        passes: list[list[float]] = []
        probes: list[float] = []
        last_probe = float("-inf")
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            now = time.perf_counter()
            if tracer is None and now - last_probe >= PROBE_GAP_S:
                probes.append(import_seconds())
                last_probe = time.perf_counter()
            base = len(passes) * len(ops)
            passes.append([runner.run(op, base + i) for i, op in enumerate(ops)])
        # the peak of the commands, before the checks build their own data
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        attempted, failed, failures = runner.verdicts()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    samples = {op.label: [p[i] for p in passes] for i, op in enumerate(ops)}
    print(json.dumps({"passes": len(passes), "samples_s": samples,
                      "import_probes_s": probes}))
    if tracer is None:
        metrics = {
            "setup_s": {"value": min(probes), "unit": "s"},
            "pass_s": {"value": sum(min(t) for t in samples.values()),
                       "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        }
    else:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(
            out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
        in_process = sum(op.rows for op in ops if op.timed)
        values = tracer.metrics(len(passes), len(ops), in_process)
        values["cli.jobs2_batch_s"] = min(
            (min(samples[op.label]) for op in ops if not op.timed), default=0)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in metric_names()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
