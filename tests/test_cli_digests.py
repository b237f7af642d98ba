"""Pinned CLI bytes: SHA-256 digests of stdout and stderr plus exit codes.

A fixed command set covers ``generate`` (one member of each family),
``verify``, ``verify --maximal``, ``dual`` (JSON and DOT), ``export``
(DOT and SVG) and ``recognize`` (a relabeled drum, a rejection and a
two-input batch), plus ``verify``, ``export`` and ``dual`` on a plane
embedding with a cut vertex, whose outer face repeats a corner, and
``verify`` and ``export`` on the nested embedding with its crossing
pairs listed unnormalized, ``dual`` on two bipyramids whose pole
edge is crossed twice, which it refuses, and ``dual`` on the sparsest
member with k = 3 (tetrahedron nodes) and the nested member with k = 3
(level-2 nodes).  A change meant to keep CLI output byte-identical must
leave every digest as it is; a change that alters output on purpose
updates the table and says why.  Commands run in-process through
``main`` from a temporary working directory, so file names in the
output are relative and stable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

from bipyramids import DOUBLE_J2, DOUBLE_J3
from nicplanar.cli import main
from nicplanar.generate import gen_optimal
from nicplanar.graph import new_graph, serialize_graph

GENERATE = {
    "optimal": ["optimal", "--k", "3"],
    "sparsest": ["sparsest", "--k", "3"],
    "intermediate": ["intermediate", "--k", "2", "--i", "3"],
    "nested-k5": ["nested-k5", "--k", "2", "--variant", "1"],
    "rac-counterexample": ["rac-counterexample"],
}

ANALYSE = {
    "verify": ["verify", "nested.json"],
    "verify --maximal": ["verify", "--maximal", "nested.json"],
    "dual": ["dual", "nested.json"],
    "dual --format dot": ["dual", "--format", "dot", "nested.json"],
    "export": ["export", "nested.json"],
    "export --format svg": ["export", "--format", "svg", "nested.json"],
    "recognize drum": ["recognize", "drum.txt"],
    "recognize rejection": ["recognize", "moved.txt"],
    "recognize batch": ["recognize", "drum.txt", "moved.txt"],
    "verify bowtie": ["verify", "bowtie.json"],
    "export bowtie": ["export", "bowtie.json"],
    "export --format svg bowtie": ["export", "--format", "svg", "bowtie.json"],
    "dual bowtie": ["dual", "bowtie.json"],
    "verify reversed pairs": ["verify", "reversed.json"],
    "export reversed pairs": ["export", "reversed.json"],
    "dual double-crossed j3": ["dual", "double-j3.json"],
    "dual double-crossed j2": ["dual", "double-j2.json"],
    "dual sparsest k3": ["dual", "sparsest.json"],
    "dual nested-k5 k3": ["dual", "nested3.json"],
}

#: two triangles sharing vertex 0; its outer face repeats that cut vertex,
#: and the walk from 0 meets it first along (0, 3), not its smallest
#: directed edge (0, 1)
BOWTIE = {"n": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [3, 4]],
          "crossings": [],
          "rotations": {"0": [3, 4, 1, 2], "1": [2, 0], "2": [0, 1],
                        "3": [4, 0], "4": [0, 3]}}

#: command -> [exit code, stdout digest, stderr digest], first 16 hex digits
PINNED = {
    "generate optimal": [0, "d9a1f5fc1534f582", "e3b0c44298fc1c14"],
    "generate sparsest": [0, "2e3ba6a02ba7a909", "e3b0c44298fc1c14"],
    "generate intermediate": [0, "6ecd7b8ba6ea9613", "e3b0c44298fc1c14"],
    "generate nested-k5": [0, "4ec0b2c06d4cd304", "e3b0c44298fc1c14"],
    # the witness lists its own faces, its fans inside the kite faces;
    # its planarization is not 3-connected, so this embedding is not the
    # one the planarity test chose before
    "generate rac-counterexample": [0, "2e73fc8e7f53a82a", "e3b0c44298fc1c14"],
    "verify": [0, "b22409f6aa9de667", "e3b0c44298fc1c14"],
    "verify --maximal": [0, "b9981f8ea9d61cab", "e3b0c44298fc1c14"],
    "dual": [0, "c9df206451cc1a39", "e3b0c44298fc1c14"],
    "dual --format dot": [0, "095d742716b35006", "e3b0c44298fc1c14"],
    "export": [0, "037e0eb654412cde", "e3b0c44298fc1c14"],
    "export --format svg": [0, "98efed2c916affa1", "e3b0c44298fc1c14"],
    "recognize drum": [0, "fdbf2858826a2d06", "e3b0c44298fc1c14"],
    "recognize rejection": [1, "e3b0c44298fc1c14", "c637db0c53ab5b84"],
    "recognize batch": [1, "9f3611a77110bdd2", "e3b0c44298fc1c14"],
    # taken before the face walk began to trust its caller, to show that
    # a face repeating a cut vertex keeps its start and its order
    "verify bowtie": [0, "b22409f6aa9de667", "e3b0c44298fc1c14"],
    "export bowtie": [0, "3ff3d26a6340168b", "e3b0c44298fc1c14"],
    "export --format svg bowtie": [0, "290ddcb90a93f6ae", "e3b0c44298fc1c14"],
    "dual bowtie": [2, "e3b0c44298fc1c14", "a8dbf4f761b7d10b"],
    # reading the document normalizes each pair, so these bytes equal
    # those of the normalized nested embedding
    "verify reversed pairs": [0, "b22409f6aa9de667", "e3b0c44298fc1c14"],
    "export reversed pairs": [0, "037e0eb654412cde", "e3b0c44298fc1c14"],
    # edge 0-1 is crossed twice, so ``dual`` refuses both documents after
    # ``verify_nic``, as ``verify`` does: exit 2, the violations on stderr
    "dual double-crossed j3": [2, "e3b0c44298fc1c14", "8cd72e485db2bb98"],
    "dual double-crossed j2": [2, "e3b0c44298fc1c14", "26d88f440fe0f46e"],
    # taken before the faces, kite sets and levels became plain tuples:
    # six tetrahedron nodes and twelve marked nodes, then level-2 nodes
    "dual sparsest k3": [0, "6466fd6e92d561ff", "e3b0c44298fc1c14"],
    "dual nested-k5 k3": [0, "d80652b7f648ace8", "e3b0c44298fc1c14"],
}


def _digest(data: str) -> str:
    return hashlib.sha256(data.encode("utf-8")).hexdigest()[:16]


def _run(argv) -> tuple[list, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return [code, _digest(out.getvalue()), _digest(err.getvalue())], out.getvalue()


def _reversed_pairs(doc: dict) -> dict:
    """``doc`` with each crossing pair listed unnormalized: both edges
    reversed and the later edge first."""
    crossings = [{"pair": [item["pair"][1][::-1], item["pair"][0][::-1]]}
                 for item in doc["crossings"]]
    return {**doc, "crossings": crossings}


def _write_inputs(nested_doc: dict, sparsest_doc: dict) -> None:
    _, stdout = _run(["generate", "nested-k5", "--k", "3"])
    nested3_doc = json.loads(stdout)["embedding"]
    for name, doc in (("nested.json", nested_doc), ("bowtie.json", BOWTIE),
                      ("sparsest.json", sparsest_doc),
                      ("nested3.json", nested3_doc),
                      ("reversed.json", _reversed_pairs(nested_doc)),
                      ("double-j3.json", DOUBLE_J3),
                      ("double-j2.json", DOUBLE_J2)):
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    # the four-column drum under the relabeling v -> 7v + 3 mod 22, its
    # edges listed in descending order
    g = gen_optimal(4).graph
    relabel = [(7 * v + 3) % g.n for v in range(g.n)]
    edges = sorted(((relabel[u], relabel[v]) for u, v in g.edges), reverse=True)
    with open("drum.txt", "wb") as fh:
        fh.write(serialize_graph(new_graph(g.n, edges), "edge-list"))
    # the drum with its first edge moved onto its first missing pair
    missing = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                   if (u, v) not in g.edge_set)
    with open("moved.txt", "wb") as fh:
        fh.write(serialize_graph(
            new_graph(g.n, list(g.edges[1:]) + [missing]), "edge-list"))


def cli_digests() -> dict[str, list]:
    """Run the command set in the current directory; command -> digests."""
    table = {}
    docs = {}
    for family, args in GENERATE.items():
        table[f"generate {family}"], stdout = _run(["generate", *args])
        docs[family] = json.loads(stdout)["embedding"]
    _write_inputs(docs["nested-k5"], docs["sparsest"])
    for name, argv in ANALYSE.items():
        table[name], _ = _run(argv)
    return table


def test_cli_bytes_match_the_pinned_digests(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digests() == PINNED
