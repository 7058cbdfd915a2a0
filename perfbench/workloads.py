"""The workloads: inputs made from a seed, ops, and verdict checks.

An op is one scenario document carried to a verdict.
``Op.call`` is the timed part: it runs orblocal and returns its raw output.
``Op.check`` is not timed: it compares that output with an answer that does
not come from orblocal (``oracle.py``) and returns an error string or None.

Each workload is built once per process (its set-up) and then yields the
ops of one pass at a time.  ``min_passes`` fixes the smallest op count of a
run, and with it the percentile that ``op_tail_ms`` reports.  An untraced
run is split over ``chunks`` measuring processes, which share its time and
its passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

import oracle as O


class Op:
    """One op; ``layer`` names the module whose code ``call`` itself runs."""

    __slots__ = ("name", "call", "check", "layer")

    def __init__(self, name, call, check, layer="harness"):
        self.name = name
        self.call = call
        self.check = check
        self.layer = layer


def _strip_timing(detail):
    """Drop the sampler's wall-clock field before comparing scenario data.

    ``_run_sard`` in orblocal's corpus stores ``elapsed_seconds`` from
    ``time.time`` in its detail, which differs on every run.
    """
    if isinstance(detail, dict) and "elapsed_seconds" in detail:
        detail = {k: v for k, v in detail.items() if k != "elapsed_seconds"}
    return detail


def _canon(data) -> str:
    return json.dumps(data, sort_keys=True, default=str)


def run_cli(main, argv):
    """Run ``cli.main`` with its output captured; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


def cli_report(stdout: str):
    """The JSON report that follows the summary lines, or None."""
    start = stdout.find("\n{")
    if stdout.startswith("{"):
        start = -1
    elif start < 0:
        return None
    try:
        return json.loads(stdout[start + 1:])
    except ValueError:
        return None


class Determinism:
    """Remembers each op's first output and flags later ones that differ."""

    def __init__(self):
        self.first: dict[str, str] = {}

    def same(self, name: str, data) -> str | None:
        blob = _canon(data)
        prev = self.first.setdefault(name, blob)
        return None if prev == blob else "output differs from the first pass"


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


# --------------------------------------------------------------------------
# roster: one `orblocal corpus run` plus the CLI over the built-in documents

CLI_COMMAND = {"germ": "analyze", "chart": "strata", "obstruction": "obstruct",
               "component-list": "classify1", "atlas": "retraction"}

# Hand-checked verdicts of the non-germ documents.
ROSTER_DOC_EXPECT = {
    # the quarter plane's reflections fix the two axes and the origin
    "chart-quarter-plane": lambda d: d["singular_count"] == 3 and sorted(
        s["dimension"] for s in d["strata"] if s["singular"]) == [0, 1, 1],
    # equal dimensions and a nontrivial kernel: the kernel acts on a point
    "obstruction-z2-line": lambda d: (d["verdict"], d["reason"]) == (
        "impossible", "kernel_on_point"),
    "components-four-types": lambda d: d["types"] == ["a", "b", "c", "d"],
    "atlas-disk-reflection": lambda d: d["status"] == "contradiction",
    "atlas-type-c": lambda d: d["status"] == "hypothesis not met",
}

# germ-z2-square-critical asks about the critical value 0 of x^2.
ROSTER_EXIT = {"germ-z2-square-critical": 2}

# Sampled documents: lift x^2, a linear map, and the zero map, over [-2, 2].
SARD_DOCS = {"germ-z2-square": True, "germ-mirror-line": False,
             "germ-z2-constant": True}
SARD_SAMPLES = 10000
SARD_BOX = (-2, 2)


def _check_sard(report, seed, samples, zero_critical) -> str | None:
    """The regular count and critical values of a sampler report."""
    hits = O.sard_zero_hits(seed, samples, *map(float, SARD_BOX)) if zero_critical else 0
    want_regular = samples - hits
    want_critical = [["0"]] if hits else []
    if report.get("samples") != samples or report.get("regular_count") != want_regular:
        return "sard regular count %s, expected %d" % (report.get("regular_count"),
                                                        want_regular)
    if report.get("critical_values") != want_critical:
        return "sard critical values %s" % (report.get("critical_values"),)
    return None


class Roster:
    name = "roster"
    min_passes = 10
    chunks = 5

    def __init__(self, seed: int, workdir: str, tiny: bool):
        from orblocal import cli, corpus

        self.cli = cli
        self.corpus = corpus
        self.tiny = tiny
        self.det = Determinism()
        rng = random.Random(seed)
        docs = corpus.builtin_documents()
        names = sorted(docs)
        if tiny:
            names = [n for n in names if not n.startswith("germ-")] + [
                "germ-mirror-line", "germ-z2-square-critical"]
        self.cli_ops = []
        for name in names:
            doc = docs[name]
            path = _write(workdir, name, doc)
            argv = [CLI_COMMAND[doc["kind"]], path]
            self.cli_ops.append(self._cli_op(name, argv))
        samples = 200 if tiny else SARD_SAMPLES
        for name, zero_critical in SARD_DOCS.items():
            path = os.path.join(workdir, name + ".json")
            if not os.path.exists(path):
                path = _write(workdir, name, docs[name])
            sard_seed = rng.randrange(2 ** 31)
            argv = ["sard", path, "--samples", str(samples), "--seed", str(sard_seed),
                    "--box", str(SARD_BOX[0]), str(SARD_BOX[1])]
            self.cli_ops.append(self._sard_op(name, argv, sard_seed, samples,
                                              zero_critical))

    def _cli_op(self, name, argv):
        want_exit = ROSTER_EXIT.get(name, 0)
        extra = ROSTER_DOC_EXPECT.get(name)

        def check(out):
            code, stdout = out
            if code != want_exit:
                return "exit code %d, expected %d" % (code, want_exit)
            report = cli_report(stdout)
            if report is None or report.get("scenario") != name:
                return "no report for %s" % name
            if code == 0 and not all(c["passed"] for c in report.get("checks", [])):
                return "a check failed with exit code 0"
            if extra is not None and not extra(report["derived"]):
                return "verdict differs from the oracle: %s" % (report["derived"],)
            return self.det.same("cli " + name, report)

        return Op("cli %s %s" % (argv[0], name),
                  lambda: run_cli(self.cli.main, argv), check)

    def _sard_op(self, name, argv, seed, samples, zero_critical):
        def check(out):
            code, stdout = out
            if code != 0:
                return "exit code %d, expected 0" % code
            report = cli_report(stdout)
            if report is None:
                return "no report for %s" % name
            return _check_sard(report["derived"]["sard"], seed, samples, zero_critical)

        return Op("cli sard %s" % name, lambda: run_cli(self.cli.main, argv), check)

    def _scenario_op(self, sc):
        def check(detail):
            detail = _strip_timing(detail)
            if not isinstance(detail, dict):
                return "scenario returned %r" % (detail,)
            if sc.anchor == "sard":
                err = _check_sard(detail, detail.get("seed"), SARD_SAMPLES, sc.name != "sard-mirror-linear")
                if err:
                    return err
            return self.det.same("scenario " + sc.name, detail)

        return Op("scenario " + sc.name, sc.run, check, layer="corpus")

    def pass_ops(self):
        """Clear the corpus caches, as a fresh `orblocal corpus run` starts."""
        corpus = self.corpus
        corpus.charts.cache_clear()
        corpus.germ_cases.cache_clear()
        corpus.scenarios.cache_clear()
        scenarios = corpus.scenarios()
        if self.tiny:
            scenarios = [s for s in scenarios if s.anchor != "sard"][:8]
        elif len(scenarios) != 52:
            raise RuntimeError("corpus has %d scenarios, expected 52" % len(scenarios))
        return [self._scenario_op(sc) for sc in scenarios] + self.cli_ops


# --------------------------------------------------------------------------
# ladder: cold CLI runs on seeded conjugates of groups of order 2..48


def ladder_documents(name: str, rng: random.Random) -> dict:
    """strata / obstruct / analyze documents for one conjugated base group."""
    n, _, gens = O.BASE_GROUPS[name]
    p = O.random_conjugator(rng, n)
    p_inv = O.inverse(p)
    conj = [O.conjugate(p, p_inv, O.mat(g)) for g in gens]
    chart = {"dim": n, "boundary": False,
             "generators": [O.matrix_json(g) for g in conj]}
    line = {"dim": 1, "boundary": False, "generators": []}
    trivial = [[["1"]]] * len(gens)
    zero = ["0"] * (n + 1)
    return {
        "strata": {"kind": "chart", "name": name, "anchor": "ladder",
                   "payload": chart},
        "obstruct": {"kind": "obstruction", "name": name, "anchor": "ladder",
                     "payload": {"source": chart, "target": line,
                                 "theta_gen_images": trivial}},
        # G (+) trivial line, lift = last coordinate: regular at the origin
        "analyze": {"kind": "germ", "name": name, "anchor": "ladder", "payload": {
            "source": {"dim": n + 1, "boundary": False,
                       "generators": [O.matrix_json(O.block_diag_one(g)) for g in conj]},
            "target": line, "theta_gen_images": trivial,
            "lift": [[{"coef": "1", "exps": [0] * n + [1]}]],
            "base_point": zero, "p": ["0"], "preimage_lifts": [zero]}},
    }


def _ladder_check(command, name):
    n, order, _ = O.BASE_GROUPS[name]
    strata_dims, verdict = O.LADDER_EXPECT[name]

    def check(out):
        code, stdout = out
        if code != 0:
            return "exit code %d, expected 0" % code
        report = cli_report(stdout)
        if report is None:
            return "no report"
        d = report["derived"]
        if command == "strata":
            got = tuple(sorted((s["dimension"] for s in d["strata"]), reverse=True))
            if got != strata_dims:
                return "strata dims %s, expected %s" % (got, strata_dims)
        elif command == "obstruct":
            if (d["verdict"], d["reason"]) != verdict:
                return "verdict %s/%s, expected %s" % (d["verdict"], d["reason"], verdict)
        else:
            checks = {c["name"]: c for c in report["checks"]}
            models = d.get("preimage_models", [])
            want = (True, order, order * order, [(order, 1, n)])
            got = (all(c["passed"] for c in checks.values()), d["n_order"],
                   checks["cocycle-identities"]["pairs_checked"],
                   [(m["gamma_s_order"], m["g_order"], m["dim"]) for m in models])
            if got != want:
                return "analyze gave %s, expected %s" % (got, want)
        return None

    return check


class Ladder:
    name = "ladder"
    min_passes = 2
    chunks = 2
    # Rungs of order <= 12 run on this many seeded conjugates per pass.  They
    # are cheap, and their ops make up the middle of the op-time
    # distribution: sampling each of them often steadies op_p50_ms, which
    # two passes alone leave to a few ops.
    small_copies = 6

    def __init__(self, seed: int, workdir: str, tiny: bool):
        from orblocal import cli

        rng = random.Random(seed)
        names = ("C2", "C3", "D4") if tiny else tuple(O.BASE_GROUPS)
        self.ops = []
        for name in names:
            copies = self.small_copies if O.BASE_GROUPS[name][1] <= 12 else 1
            for copy in range(copies):
                for command, doc in ladder_documents(name, rng).items():
                    label = "%s-%s-%d" % (name, command, copy)
                    argv = [command, _write(workdir, label, doc)]
                    self.ops.append(Op("%s %s#%d" % (command, name, copy),
                                       lambda argv=argv: run_cli(cli.main, argv),
                                       _ladder_check(command, name)))
        # Ops are cold, so their order does not change their cost.  A seeded
        # order spreads the copies of a rung over the pass, so that slow
        # stretches of the host do not hit all of them at once.
        rng.shuffle(self.ops)

    def pass_ops(self):
        return self.ops


WORKLOADS = {w.name: w for w in (Roster, Ladder)}
