"""Command line surface for the package.

One subcommand per capability: ``recognize`` runs the optimal-graph
recognizer, ``verify`` replays the embedding verifiers, ``dual`` builds
and analyses the generalized dual, ``density`` reports the edge-count
sandwich, ``generate`` emits the graph families, ``oracle`` runs the
exhaustive cross-check, and ``export`` renders a planarization.

Machine-readable output (JSON, DOT, SVG, graph6) goes to stdout or
``--out``; everything meant for humans goes to stderr.  JSON keys are
sorted so identical runs stay byte-identical.

Exit codes: 0 success (accepted / verified / feasible / within bounds),
1 negative analysis outcome, 2 input or usage errors.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from .dual import (
    build_dual,
    check_adjacency_rules,
    check_dual_structure,
    compute_levels,
    quarter_sphere_accounting,
)
from .embedding import (
    embedding_from_json,
    embedding_to_doc,
    verify_maximal_embedding,
    verify_nic,
)
from .errors import AccountingViolation, LevelExceedsTwo, NicplanarError
from .generate import (
    gen_densest_intermediate,
    gen_nested_k5,
    gen_optimal,
    gen_rac_counterexample,
    gen_sparsest,
)
from .graph import parse_graph, serialize_graph
from .oracle import DEFAULT_SIZE_LIMIT, oracle_maximal_nic
from .recognize import DEFAULT_STEP_CAP_MULTIPLIER, recognize_optimal
from .render import dual_to_dot, embedding_to_dot, embedding_to_svg

GRAPH_FORMATS = ("edge-list", "graph6", "json")

#: reason carried by a batch row whose input could not be read or parsed
INPUT_ERROR = "InputError"

#: collector thresholds while a command runs.  On a large graph a command
#: builds hundreds of thousands of tuples that live until it returns; at
#: the default thresholds the collector re-scans them over and over and
#: finds no garbage, and its full passes cost more per vertex as n grows.
#: It stays enabled: the networkx paths leave cyclic garbage to free.
GC_THRESHOLDS = (100_000, 50, 1000)


def _read(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    with open(path, "rb") as fh:
        return fh.read()


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _load_graph(path: str, fmt: str):
    data = _read(path)
    if fmt == "json":
        return embedding_from_json(data).base
    return parse_graph(data, fmt)


def _report_doc(report) -> dict:
    return {
        "ok": report.ok,
        "checked": list(report.checked),
        "violations": [{"rule": v.rule, "message": v.message}
                       for v in report.violations],
        "skipped": report.skipped,
    }


# --- recognize ---


def _recognize_worker(task):
    path, fmt, multiplier = task
    try:
        g = _load_graph(path, fmt)
    except (NicplanarError, OSError) as exc:
        return {"input": path, "accepted": False, "reason": INPUT_ERROR,
                "diagnostics": {"message": str(exc)}, "embedding": None}
    res = recognize_optimal(g, step_cap_multiplier=multiplier)
    return {
        "input": path,
        "accepted": res.accepted,
        "reason": res.reason,
        "diagnostics": res.diagnostics,
        "embedding": embedding_to_doc(res.embedding) if res.accepted else None,
    }


def _cmd_recognize(args) -> int:
    tasks = [(path, args.format, args.step_cap_multiplier)
             for path in args.input]
    if len(tasks) == 1:
        row = _recognize_worker(tasks[0])
        if row["accepted"]:
            _emit(_dumps(row["embedding"]), args.out)
            return 0
        message = row["diagnostics"].get("message", "")
        if row["reason"] == INPUT_ERROR:
            print(f"error: {message}", file=sys.stderr)
            return 2
        print(f"{row['reason']}: {message}", file=sys.stderr)
        return 1
    workers = min(args.jobs, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # about four chunks per worker, as multiprocessing.Pool.map picks:
        # one task per round trip costs more than a small input's work
        chunksize = -(-len(tasks) // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_recognize_worker, tasks,
                                 chunksize=chunksize))
    else:
        rows = [_recognize_worker(t) for t in tasks]
    _emit("".join(_dumps(row) for row in rows), args.out)
    bad = [row for row in rows if row["reason"] == INPUT_ERROR]
    for row in bad:
        print(f"error: {row['input']}: {row['diagnostics']['message']}",
              file=sys.stderr)
    if bad:
        return 2
    return 0 if all(row["accepted"] for row in rows) else 1


# --- verify ---


def _cmd_verify(args) -> int:
    emb = embedding_from_json(_read(args.input))
    report = verify_maximal_embedding(emb) if args.maximal else verify_nic(emb)
    _emit(_dumps(_report_doc(report)), args.out)
    return 0 if report.ok else 1


# --- dual ---


def _cmd_dual(args) -> int:
    emb = embedding_from_json(_read(args.input))
    report = verify_nic(emb)
    if not report.ok:
        print(f"error: not a NIC embedding: {report.summary()}",
              file=sys.stderr)
        return 2
    dual = build_dual(emb)
    if args.format == "dot":
        _emit(dual_to_dot(dual), args.out)
        return 0

    rules = check_adjacency_rules(dual)
    structure = check_dual_structure(dual)
    doc = {
        "census": dual.census(),
        "nodes": [{"kind": node.kind,
                   "corners": list(dual.node_identity(idx))}
                  for idx, node in enumerate(dual.nodes)],
        "links": [{"a": link.a, "b": link.b, "via": list(link.via)}
                  for link in dual.links],
        "rules": _report_doc(rules),
        "structure": [{"rule": v.rule, "message": v.message}
                      for v in structure],
    }
    clean = rules.ok and not structure
    try:
        levels = compute_levels(dual)
        doc["levels"] = {"per_node": list(levels),
                         "marked": list(dual.marked_flags())}
    except LevelExceedsTwo as exc:
        levels = None
        doc["levels"] = None
        doc["level_error"] = str(exc)
        clean = False
    try:
        account = quarter_sphere_accounting(dual, levels)
        doc["accounting"] = {
            "grand_total": str(account.grand_total),
            "totals": [str(t) for t in account.totals],
            "quarters": [
                [{"face": list(dual.faces[q.face]),
                  "triangle_fraction": str(q.triangle_fraction),
                  "tetrahedron_fraction": str(q.tetrahedron_fraction),
                  "planar_edges": str(q.planar_edges)}
                 for q in row]
                for row in account.quarters
            ],
        }
    except (AccountingViolation, LevelExceedsTwo) as exc:
        doc["accounting"] = None
        doc["accounting_error"] = str(exc)
        clean = False
    _emit(_dumps(doc), args.out)
    return 0 if clean else 1


# --- density ---


def _cmd_density(args) -> int:
    g = _load_graph(args.input, args.format)
    five_m = 5 * g.m
    lower = 16 * (g.n - 2)
    upper = 18 * (g.n - 2)
    doc = {
        "n": g.n,
        "m": g.m,
        "five_m": five_m,
        "lower": lower,
        "upper": upper,
        "lower_ok": lower <= five_m,
        "upper_ok": five_m <= upper,
        "within": lower <= five_m <= upper,
        "at_sparsest": five_m == lower,
        "at_optimal": five_m == upper,
    }
    _emit(_dumps(doc), args.out)
    return 0 if doc["within"] else 1


# --- generate ---


def _cmd_generate(args) -> int:
    if args.family == "optimal":
        _require(args, "k")
        inst = gen_optimal(args.k)
    elif args.family == "sparsest":
        _require(args, "k")
        inst = gen_sparsest(args.k)
    elif args.family == "intermediate":
        _require(args, "k")
        _require(args, "i")
        inst = gen_densest_intermediate(args.k, args.i)
    elif args.family == "nested-k5":
        _require(args, "k")
        inst = gen_nested_k5(args.k, args.variant)
    else:
        inst = gen_rac_counterexample()
    g = inst.graph
    doc = {
        "family": inst.kind,
        "params": inst.params,
        "n": g.n,
        "m": g.m,
        "graph6": serialize_graph(g, "graph6").decode("ascii"),
        "embedding": embedding_to_doc(inst.embedding),
    }
    _emit(_dumps(doc), args.out)
    if args.render:
        text = (embedding_to_svg(inst.embedding)
                if args.render.endswith(".svg")
                else embedding_to_dot(inst.embedding))
        _emit(text, args.render)
    return 0


def _require(args, name: str) -> None:
    if getattr(args, name) is None:
        print(f"nicplanar generate {args.family}: --{name} is required",
              file=sys.stderr)
        raise SystemExit(2)


# --- oracle ---


def _cmd_oracle(args) -> int:
    g = _load_graph(args.input, args.format)
    res = oracle_maximal_nic(g, optimal=args.optimal, limit=args.limit)
    doc = {
        "feasible": res.feasible,
        "examined": res.examined,
        "pruned": res.pruned,
        "kite_sets": [[list(q) for q in ks] for ks in res.kite_sets],
    }
    _emit(_dumps(doc), args.out)
    return 0 if res.feasible else 1


# --- export ---


def _cmd_export(args) -> int:
    emb = embedding_from_json(_read(args.input))
    text = embedding_to_svg(emb) if args.format == "svg" else embedding_to_dot(emb)
    _emit(text, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nicplanar",
        description="Recognition, verification and construction of "
                    "NIC-planar graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide optimal NIC-planarity")
    p.add_argument("input", nargs="+",
                   help="graph file(s); '-' reads a single graph from stdin")
    p.add_argument("--format", choices=GRAPH_FORMATS, default="edge-list")
    p.add_argument("--step-cap-multiplier", type=int,
                   default=DEFAULT_STEP_CAP_MULTIPLIER)
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes when several inputs are given")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("verify", help="verify an embedding JSON document")
    p.add_argument("input", help="embedding JSON file or '-'")
    p.add_argument("--maximal", action="store_true",
                   help="check maximality structure, not just the "
                        "crossing conditions")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("dual", help="build and analyse the generalized dual")
    p.add_argument("input", help="embedding JSON file or '-'")
    p.add_argument("--format", choices=("json", "dot"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("density", help="report the edge-count sandwich")
    p.add_argument("input", help="graph file or '-'")
    p.add_argument("--format", choices=GRAPH_FORMATS, default="edge-list")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("generate", help="emit a graph family instance")
    p.add_argument("family", choices=("optimal", "sparsest", "intermediate",
                                      "nested-k5", "rac-counterexample"))
    p.add_argument("--k", type=int)
    p.add_argument("--i", type=int)
    p.add_argument("--variant", type=int, default=0,
                   help="layer selection for nested-k5")
    p.add_argument("--render", metavar="PATH",
                   help="also write a DOT (or .svg) rendering of the "
                        "planarization")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("oracle", help="exhaustive kite-set search")
    p.add_argument("input", help="graph file or '-'")
    p.add_argument("--format", choices=GRAPH_FORMATS, default="edge-list")
    p.add_argument("--optimal", action="store_true",
                   help="require an exact cover of the optimal size")
    p.add_argument("--limit", type=int, default=DEFAULT_SIZE_LIMIT)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("export", help="render a planarization")
    p.add_argument("input", help="embedding JSON file or '-'")
    p.add_argument("--format", choices=("dot", "svg"), default="dot")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    thresholds = gc.get_threshold()
    gc.set_threshold(*GC_THRESHOLDS)
    try:
        return args.func(args)
    except NicplanarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.set_threshold(*thresholds)


if __name__ == "__main__":
    sys.exit(main())
