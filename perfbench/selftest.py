"""Self-test of the output checks: intact outputs pass, broken ones fail.

Run from the repository root:

    python3 perfbench/selftest.py

It takes real outputs of the command line on small inputs, confirms
that ``checks.py`` accepts them, then breaks each by hand (a crossing
pair swapped between two kites, a face made non-triangular, a sphere
total off by 1/2, one graph6 bit flipped) and confirms that the check
rejects it.  Exit code 0 means every case behaved.
"""

import contextlib
import io
import json
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import nicplanar.cli as cli  # noqa: E402
from checks import (CheckFailed, check_dual, check_embedding,  # noqa: E402
                    check_generated, check_recognized_drum)
from inputs import edge, relabeled_drum  # noqa: E402


def run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv} exited {rc}")
    return out.getvalue()


def expect(name: str, check, intact: str, broken: str) -> bool:
    try:
        check(intact)
    except CheckFailed as exc:
        print(f"FAIL {name}: the intact output is rejected: {exc}")
        return False
    try:
        check(broken)
    except CheckFailed as exc:
        print(f"ok   {name}: rejected ({exc})")
        return True
    print(f"FAIL {name}: the broken output passes")
    return False


def main() -> int:
    results = []
    with tempfile.TemporaryDirectory(dir=HERE) as work:
        g = relabeled_drum(4, random.Random(7))
        path = os.path.join(work, "drum.txt")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(g.edge_list_text())
        recognized = run(["recognize", path])
        doc = json.loads(recognized)
        first, second = doc["crossings"][0]["pair"], doc["crossings"][1]["pair"]
        first[1], second[1] = second[1], first[1]
        results.append(expect(
            "crossing pair swapped between two kites",
            lambda out: check_recognized_drum(out, g), recognized,
            json.dumps(doc)))

        generated = run(["generate", "optimal", "--k", "3"])
        emb = json.loads(generated)["embedding"]
        # dropping an uncrossed edge merges its two triangles into a 4-face
        crossed = {edge(*e) for p in emb["crossings"] for e in p["pair"]}
        u, v = next(e for e in emb["edges"] if edge(*e) not in crossed)
        emb["edges"].remove([u, v])
        emb["rotations"][str(u)].remove(v)
        emb["rotations"][str(v)].remove(u)
        results.append(expect(
            "face made non-triangular",
            lambda out: check_embedding(
                json.loads(out), 17, {edge(*e) for e in json.loads(out)["edges"]}),
            json.dumps(json.loads(generated)["embedding"]), json.dumps(emb)))

        path = os.path.join(work, "optimal.json")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(json.dumps(json.loads(generated)["embedding"]))
        counts = check_generated(generated, "optimal", {"k": 3})
        dual = run(["dual", path])
        doc = json.loads(dual)
        doc["accounting"]["totals"][0] = "9/2"
        results.append(expect(
            "sphere total off by 1/2",
            lambda out: check_dual(out, "optimal", counts), dual,
            json.dumps(doc)))

        doc = json.loads(generated)
        g6 = bytearray(doc["graph6"].encode("ascii"))
        g6[len(g6) // 2] = ((g6[len(g6) // 2] - 63) ^ 1) + 63
        doc["graph6"] = g6.decode("ascii")
        results.append(expect(
            "one graph6 bit flipped",
            lambda out: check_generated(out, "optimal", {"k": 3}), generated,
            json.dumps(doc)))
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
