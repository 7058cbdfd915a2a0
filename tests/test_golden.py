"""CLI output pinned by digest.

Each run's (exit code, stdout, stderr) is hashed with sha256 and compared
with tests/cli_digests.json, so a change that alters any report, summary
line or error message on these inputs fails here.  The runs are the CLI on
every built-in document; sard with 10^6 samples on every built-in germ
document, for seeds 1 and 20240 and the boxes [-2, 2] and [-1/3, 5/7] on
each target coordinate; strata, obstruct and analyze on rational
conjugates of D4, A4, B3, S4, D12 and C2x3; and corpus run --out, whose
written file is pinned by its own sha256.  The same digests must come out of one run
under python -O, since every check raises explicitly.  To regenerate the digests after an intended
output change, run this file as a script from the repository root:

    PYTHONPATH=src python tests/test_golden.py > tests/cli_digests.json
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F

import orblocal
from orblocal.cli import main
from orblocal.corpus import builtin_documents

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_digests.json")

COMMAND = {"germ": "analyze", "chart": "strata", "obstruction": "obstruct",
           "component-list": "classify1", "atlas": "retraction"}


def perm(images):
    """The permutation matrix sending e_j to e_images[j]."""
    n = len(images)
    return [[int(images[j] == i) for j in range(n)] for i in range(n)]


# name -> integer generators
BASE_GROUPS = {
    "D4": [[[0, -1], [1, 0]], [[1, 0], [0, -1]]],
    "A4": [perm([1, 2, 0, 3]), perm([1, 0, 3, 2])],
    "B3": [perm([1, 2, 0]), perm([1, 0, 2]), [[-1, 0, 0], [0, 1, 0], [0, 0, 1]]],
    "S4": [perm([1, 2, 3, 0]), perm([1, 0, 2, 3])],
    "D12": [[[0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 1], [0, 0, 1, 0]],
            [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, -1, 0, -1]]],
    "C2x3": [[[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, -1, 0], [0, 0, 1]],
             [[1, 0, 0], [0, 1, 0], [0, 0, -1]]],
}

# a rational conjugator per dimension
CONJUGATOR = {
    2: [[2, F(1, 3)], [-1, 1]],
    3: [[1, F(1, 2), 0], [0, 1, F(-1, 3)], [2, 0, 1]],
    4: [[1, F(1, 2), 0, 0], [0, 1, F(-1, 3), 0], [0, 0, 1, 2], [F(1, 5), 0, 0, 1]],
}


def matmul(a, b):
    return [[sum(F(x) * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def inverse(a):
    """Gauss-Jordan over Fraction."""
    n = len(a)
    rows = [[F(x) for x in row] + [F(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        r = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[r] = rows[r], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c]:
                rows[i] = [x - rows[i][c] * y for x, y in zip(rows[i], rows[c])]
    return [row[n:] for row in rows]


def matrix_json(a):
    return [[str(F(x)) for x in row] for row in a]


def conjugate_documents(name):
    """strata, obstruct and analyze documents for a conjugate P G P^-1.

    The germ is G (+) a trivial line onto the trivial line by the last
    coordinate, with preimage lifts at the origin and at P e_1 (+) 0, a point
    with a nontrivial isotropy group, so analyze re-centers there.
    """
    gens = BASE_GROUPS[name]
    n = len(gens[0])
    p = CONJUGATOR[n]
    p_inv = inverse(p)
    conj = [matmul(matmul(p, g), p_inv) for g in gens]
    chart = {"dim": n, "boundary": False, "generators": [matrix_json(g) for g in conj]}
    line = {"dim": 1, "boundary": False, "generators": []}
    trivial = [[["1"]]] * len(gens)
    zero = ["0"] * (n + 1)
    off_base = [str(F(row[0])) for row in p] + ["0"]
    plus_line = [[list(row) + [0] for row in g] + [[0] * n + [1]] for g in conj]
    return {
        "strata": {"kind": "chart", "name": name, "anchor": "golden", "payload": chart},
        "obstruct": {"kind": "obstruction", "name": name, "anchor": "golden",
                     "payload": {"source": chart, "target": line,
                                 "theta_gen_images": trivial}},
        "analyze": {"kind": "germ", "name": name, "anchor": "golden", "payload": {
            "source": {"dim": n + 1, "boundary": False,
                       "generators": [matrix_json(g) for g in plus_line]},
            "target": line, "theta_gen_images": trivial,
            "lift": [[{"coef": "1", "exps": [0] * n + [1]}]],
            "base_point": zero, "p": ["0"], "preimage_lifts": [zero, off_base]}},
    }


SARD_SEEDS = (1, 20240)
SARD_BOXES = (("-2", "2"), ("-1/3", "5/7"))


def runs():
    """(label, document, argv after the document) of every pinned run; the
    command is argv's first word."""
    out = []
    for name, doc in builtin_documents().items():
        out.append((name, doc, [COMMAND[doc["kind"]]]))
        if doc["kind"] == "germ":
            k = doc["payload"]["target"]["dim"]
            for seed in SARD_SEEDS:
                for lo, hi in SARD_BOXES:
                    out.append(("%s-sard-%d-[%s,%s]" % (name, seed, lo, hi), doc,
                                ["sard", "--samples", "1000000", "--seed", str(seed),
                                 *["--box", lo, hi] * k]))
    for name in BASE_GROUPS:
        for command, doc in conjugate_documents(name).items():
            out.append(("%s-%s" % (name, command), doc, [command]))
    return out


def run_digest(argv):
    """sha256 of the JSON list [exit code, stdout, stderr] of the CLI on argv."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    blob = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def digests(workdir):
    """label -> sha256 of the JSON list [exit code, stdout, stderr] of each
    run, and for "corpus-run-out" the sha256 of the file that
    corpus run --out writes."""
    out = {}
    for label, doc, argv in runs():
        path = os.path.join(workdir, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        out[label] = run_digest([argv[0], path, *argv[1:]])
    path = os.path.join(workdir, "corpus.json")
    out["corpus-run"] = run_digest(["corpus", "run", "--out", path])
    with open(path, "rb") as fh:
        out["corpus-run-out"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def pinned():
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def test_cli_output_matches_digests(tmp_path):
    want = pinned()
    got = digests(str(tmp_path))
    assert len(got) == 105
    assert sorted(got) == sorted(want)
    changed = [label for label in got if got[label] != want[label]]
    assert not changed, "CLI output changed for %s" % changed


def test_cli_output_matches_digests_under_optimize():
    # this file run as a script prints every digest; run it with asserts stripped
    src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
    out = subprocess.run([sys.executable, "-O", os.path.abspath(__file__)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    got, want = json.loads(out.stdout), pinned()
    changed = sorted(label for label in set(got) | set(want)
                     if got.get(label) != want.get(label))
    assert not changed, "CLI output under -O changed for %s" % changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        json.dump(digests(workdir), sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
