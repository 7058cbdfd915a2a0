"""Command-line front end.

Commands: analyze (full germ pipeline), sard (regular-value density
sampling), strata (chart stratification), obstruct (existence
certificates), classify1 (compact 1-orbifold components), retraction
(no-retraction argument on an atlas), corpus (built-in regression
scenarios).  Outputs are UTF-8 JSON with a human summary on stdout.

Exit codes: 0 success, 1 input/schema or usage error, 2 failed mathematical
check, 3 budget exceeded (a resource limit such as the group-order bound,
not a mathematical failure).
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, corpus, serialize
from .charts import stratify
from .germs import analyze_germ, obstruction_certificate, sampling_interval, sard_sample
from .onedim import boundary_parity, classify_1_orbifold, retraction_contradiction
from .ratlin import BudgetExceeded
from .serialize import SchemaError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2
EXIT_BUDGET = 3


def _load(path: str):
    """The JSON document in the file at path.  The file is read as bytes in
    one unbuffered read and decoded as UTF-8, and CRLF and a lone CR become
    LF, the newline translation of text mode: JSON reads all three as
    whitespace, and a JSONDecodeError gives the position it gives on the
    LF text.  A file that cannot be read, is not UTF-8 or is not JSON (a
    UTF-8 byte order mark included) raises SchemaError at $, an input
    error."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as e:
        raise SchemaError("$", "cannot read %s (%s)" % (path, e)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as e:
        raise SchemaError("$", "invalid UTF-8 in %s (%s)" % (path, e)) from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError("$", "invalid JSON in %s (%s)" % (path, e)) from None


def _write(path: str, text: str):
    """Write text to the file at path as UTF-8; a file that cannot be
    written raises SchemaError at $.out, an input error."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise SchemaError("$.out", "cannot write %s (%s)" % (path, e)) from None


def _json(v, pad: str = "\n") -> str:
    """v as json.dumps(v, indent=2, sort_keys=True) writes it, for the types
    a report holds: str, int, bool, None, lists and tuples, and dicts with
    str keys; anything else raises TypeError.  pad is the newline and
    indent of v's own line.  With an indent json.dumps runs its pure-Python
    encoder, one generator per container; this is one call per value."""
    if isinstance(v, str):
        return _quote(v)
    if v is None or v is True or v is False:
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, int):
        return int.__repr__(v)
    inner = pad + "  "
    if isinstance(v, (list, tuple)):
        items, ends = [_json(x, inner) for x in v], "[]"
    elif isinstance(v, dict):
        # sorted() or _quote raises TypeError on a key that is not a str
        items, ends = [_quote(k) + ": " + _json(v[k], inner) for k in sorted(v)], "{}"
    else:
        raise TypeError("Object of type %s is not JSON serializable" % type(v).__name__)
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + pad + ends[1]


def _emit(report: dict, out_path: str | None, summary_lines: list[str]):
    """Write the report as json.dumps(report, indent=2, sort_keys=True)
    does (_json) to out_path and print the summary lines, or else print the
    summary lines and then the report.  An out_path that cannot be written
    is an input error (SchemaError at $.out), raised before anything is
    printed."""
    blob = _json(report)
    if out_path:
        _write(out_path, blob + "\n")
    for line in summary_lines:
        print(line)
    if not out_path:
        print(blob)


def _base_report(meta: dict) -> dict:
    return {"scenario": meta["name"], "anchor": meta["anchor"],
            "version": __version__, "checks": [], "derived": {}}


def _payload(path: str, kind: str, default_name: str) -> tuple:
    """(payload, name, where) of a document: a scenario wrapper of the given
    kind, or a bare payload object named default_name.  where is the path
    of the payload in the document, "$.payload" or "$", for input errors."""
    doc = _load(path)
    if not isinstance(doc, dict):
        raise SchemaError("$", "expected a JSON object")
    if "kind" not in doc:
        return doc, default_name, "$"
    meta = serialize.parse_scenario(doc)
    _expect_kind(meta, kind)
    return meta["payload"], meta["name"], "$.payload"


def _expect_kind(meta: dict, kind: str):
    if meta["kind"] != kind:
        raise SchemaError("$.kind", "expected a %r scenario, got %r"
                          % (kind, meta["kind"]))


def cmd_analyze(args) -> int:
    meta = serialize.parse_scenario(_load(args.file))
    _expect_kind(meta, "germ")
    germ, p, lifts = serialize.parse_germ_payload(meta["payload"], "$.payload")
    reg, proj, cc, built, faith = analyze_germ(germ, p, lifts)
    report = _base_report(meta)
    checks = report["checks"]
    checks += [
        {"name": "germ-equivariance", "passed": True,
         "generators_checked": len(set(germ.source.group.generator_indices or (0,)))},
        {"name": "regular-value", "passed": reg.regular, "needed_rank": reg.needed_rank,
         "point_ranks": [[serialize.vector_json(pt), rank] for pt, rank in reg.point_ranks],
         "empty_preimage": reg.empty_preimage},
        {"name": "invariant-projection", "passed": True, "n_order": proj.n_group.order},
        {"name": "cocycle-identities", "passed": True, "pairs_checked": cc.pairs_checked},
        {"name": "faithfulness", "passed": True,
         "n_order": faith.n_order, "g_order": faith.g_order},
    ]
    derived = report["derived"]
    derived["n_order"] = proj.n_group.order
    derived["projection"] = serialize.matrix_json(proj.projection)
    derived["projection_kernel"] = serialize.matrix_json(proj.proj_kernel.echelon)
    if not reg.regular:
        _emit(report, args.out, ["FAIL %s: not a regular value" % meta["name"]])
        return EXIT_MATH
    derived["preimage_models"] = [{
        "lift_point": serialize.vector_json(pt),
        "recentered": model.germ is not germ,
        "kernel": serialize.matrix_json(model.kernel.echelon),
        "gamma_s_order": model.gamma_s.order,
        "g_order": model.g_group.order,
        "dim": model.dim,
        "boundary_kind": model.boundary_kind,
    } for pt, model in zip(lifts, built)]
    checks.append({"name": "preimage-models", "passed": True, "count": len(built)})
    _emit(report, args.out, ["PASS %s: regular value, %d preimage model(s)"
                             % (meta["name"], len(built))])
    return EXIT_OK


def cmd_sard(args) -> int:
    meta = serialize.parse_scenario(_load(args.file))
    _expect_kind(meta, "germ")
    germ, _, _ = serialize.parse_germ_payload(meta["payload"], "$.payload")
    if len(args.box) != germ.target.dim:
        raise SchemaError("$.box", "need %d --box intervals, got %d"
                          % (germ.target.dim, len(args.box)))
    box = []
    for i, (lo, hi) in enumerate(args.box):
        where = "$.box[%d]" % i
        serialize.check_exponent(lo, where)
        serialize.check_exponent(hi, where)
        try:
            lo, hi = Fraction(lo), Fraction(hi)
        except (ValueError, ZeroDivisionError):
            raise SchemaError(where, "not a rational number: %s %s" % (lo, hi)) from None
        try:
            sampling_interval(lo, hi)
        except ValueError as e:
            raise SchemaError(where, str(e)) from None
        box.append((lo, hi))
    if args.samples < 1:
        raise SchemaError("$.samples", "need at least 1 sample, got %d" % args.samples)
    sard = sard_sample(germ, box, args.samples, args.seed)
    report = _base_report(meta)
    report["seed"] = args.seed
    report["derived"]["sard"] = sard.to_jsonable()
    report["checks"].append({"name": "sard-sampling", "passed": True,
                             "regular_fraction": str(sard.regular_fraction)})
    summary = ["PASS %s: regular fraction %s over %d samples"
               % (meta["name"], sard.regular_fraction, args.samples)]
    _emit(report, args.out, summary)
    return EXIT_OK


def cmd_strata(args) -> int:
    payload, name, where = _payload(args.file, "chart", "chart")
    chart = serialize.parse_chart(payload, where)
    rep = stratify(chart)
    strata = [{
        "dimension": s.dimension,
        "codimension": s.codimension,
        "isotropy_order": s.isotropy.order,
        "singular": s.singular,
        "in_boundary": s.in_boundary,
        "fixed_space": serialize.matrix_json(s.fixed_space.echelon),
    } for s in rep.strata]
    report = {"scenario": name, "version": __version__,
              "derived": {"strata": strata,
                          "singular_count": sum(1 for s in strata if s["singular"])}}
    summary = ["%s: %d singular stratum/strata of dims %s"
               % (name, report["derived"]["singular_count"],
                  [s["dimension"] for s in strata if s["singular"]])]
    _emit(report, args.out, summary)
    return EXIT_OK


def cmd_obstruct(args) -> int:
    payload, name, where = _payload(args.file, "obstruction", "obstruction")
    source, target, theta = serialize.parse_obstruction_payload(payload, where)
    cert = obstruction_certificate(source, target, theta)
    derived = {"verdict": cert.verdict, "reason": cert.reason_code,
               "detail": cert.detail}
    if cert.witness_lift is not None:
        derived["witness_lift"] = serialize.poly_json(cert.witness_lift)
    if cert.invariant_search is not None:
        derived["invariant_search"] = {
            "status": cert.invariant_search.status,
            "reason": cert.invariant_search.reason,
        }
    report = {"scenario": name, "version": __version__, "derived": derived}
    _emit(report, args.out, ["%s: %s (%s)" % (name, cert.verdict, cert.reason_code)])
    return EXIT_OK


def cmd_classify1(args) -> int:
    payload, name, where = _payload(args.file, "component-list", "components")
    if not isinstance(payload, dict) or "components" not in payload:
        raise SchemaError(where + ".components", "missing required field")
    comps_json = serialize.array_field(payload, "components", where, "components")
    comps = [serialize.parse_component(cj, "%s.components[%d]" % (where, i))
             for i, cj in enumerate(comps_json)]
    types = [classify_1_orbifold(c) for c in comps]
    derived = {"types": types}
    if all(t in ("a", "b") for t in types):
        parity = boundary_parity(comps)
        derived["boundary_points"] = parity.boundary_points
        derived["even"] = parity.even
    else:
        derived["boundary_points"] = None
        derived["note"] = "mirror components present; parity theorem not applicable"
    report = {"scenario": name, "version": __version__, "derived": derived}
    _emit(report, args.out, ["%s: types %s" % (name, types)])
    return EXIT_OK


def cmd_retraction(args) -> int:
    payload, name, where = _payload(args.file, "atlas", "atlas")
    scenario = serialize.parse_atlas_payload(payload, where)
    rep = retraction_contradiction(scenario)
    derived = {
        "status": rep.status,
        "contradiction_kind": rep.contradiction_kind,
        "detail": rep.detail,
        "components": [serialize.component_json(c.component)
                       for c in rep.components],
        "hypothesis_holds": rep.hypothesis.holds,
    }
    report = {"scenario": name, "version": __version__, "derived": derived}
    _emit(report, args.out, ["%s: %s" % (name, rep.status)])
    return EXIT_OK


def cmd_corpus(args) -> int:
    results = list(corpus.run_corpus(anchor=args.anchor))
    if args.out:  # written before anything is printed
        blob = {
            "version": __version__,
            "results": [{"name": n, "anchor": a, "passed": ok, "detail": d}
                        for n, a, ok, d in results],
        }
        _write(args.out, _json(blob) + "\n")
    failures = 0
    for name, anchor, ok, detail in results:
        if ok:
            print("PASS %-34s [%s]" % (name, anchor))
            continue
        failures += 1
        print("FAIL %-34s [%s] %s" % (name, anchor, detail["error"]))
        for key, want, got in detail.get("mismatches", []):
            print("    %s: expected %s, got %s"
                  % (key, json.dumps(want, default=str), json.dumps(got, default=str)))
    print("corpus: %d/%d passed" % (len(results) - failures, len(results)))
    return EXIT_OK if failures == 0 else EXIT_MATH


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1, the code of input
    errors (argparse exits 2, the code of a failed mathematical check here),
    and which reads any word that starts with '-' and a digit or '.digit',
    such as the rational '-1/3', as a value rather than an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes a word for a value when this matches it and no
        # option of the parser looks like a negative number
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, "%s: error: %s\n" % (self.prog, message))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once; each parse returns a fresh namespace.
    Its ``commands`` maps each command name to the command's own parser."""
    ap = _Parser(
        prog="orblocal",
        description="exact local calculus of smooth orbifold charts and germs")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full germ pipeline on a scenario")
    p.add_argument("file")
    p.add_argument("--out", help="write the JSON report here")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("sard", help="sample target values and classify them")
    p.add_argument("file")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--box", nargs=2, action="append", required=True,
                   metavar=("LO", "HI"),
                   help="interval per target coordinate (repeatable)")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_sard)

    p = sub.add_parser("strata", help="stratify a chart by isotropy type")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_strata)

    p = sub.add_parser("obstruct", help="existence certificate for a germ problem")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_obstruct)

    p = sub.add_parser("classify1", help="classify compact 1-orbifold components")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_classify1)

    p = sub.add_parser("retraction", help="run the no-retraction argument on an atlas")
    p.add_argument("file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_retraction)

    p = sub.add_parser("corpus", help="run the built-in scenario corpus")
    p.add_argument("action", choices=["run"])
    p.add_argument("--anchor", help="only scenarios whose anchor/name match")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_corpus)
    ap.commands = sub.choices
    return ap


def main(argv=None) -> int:
    """Run the command argv names (sys.argv[1:] when None) and return its
    exit code.

    When argv's first word names a command, the rest is parsed by that
    command's own parser (build_parser().commands) alone, into a namespace
    whose ``command`` is the name: the namespace the top-level parser gives,
    which hands the rest to the same parser.  Everything else goes through
    the top-level parser: no command, an unknown one, --help, --version,
    and a word the command's parser does not know, which the top-level
    parser reports as an unrecognized argument.
    """
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    args = extra = None
    if argv and argv[0] in ap.commands:
        args, extra = ap.commands[argv[0]].parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or extra:
        args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except SchemaError as e:
        print("input error: %s" % e, file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceeded as e:
        print("budget exceeded: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError, AssertionError, RuntimeError) as e:
        print("check failed: %s: %s" % (type(e).__name__, e), file=sys.stderr)
        return EXIT_MATH


if __name__ == "__main__":
    sys.exit(main())
