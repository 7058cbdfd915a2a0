import argparse
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import orblocal

from orblocal import __version__, cli, corpus, germs
from orblocal.cli import build_parser, main
from orblocal.corpus import builtin_documents
from orblocal.ratlin import MultiPoly
from orblocal.serialize import parse_matrix


@pytest.fixture(scope="module")
def docs():
    return builtin_documents()


def write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestAnalyze:
    def test_regular_scenario_exit_zero(self, tmp_path, docs, capsys):
        path = write(tmp_path, docs["germ-mirror-line"])
        out = str(tmp_path / "report.json")
        assert main(["analyze", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["version"] == __version__
        assert report["derived"]["projection"] == [["0", "0"], ["0", "1"]]
        models = report["derived"]["preimage_models"]
        assert models[0]["gamma_s_order"] == 2

    def test_base_point_jacobian_evaluated_once(self, tmp_path, docs):
        # regularity, projection, preimage model and faithfulness all read
        # the germ's one base-point kernel
        path = write(tmp_path, docs["germ-mirror-line"])
        with mock.patch.object(MultiPoly, "jacobian_at", autospec=True,
                               side_effect=MultiPoly.jacobian_at) as jac:
            assert main(["analyze", path, "--out", str(tmp_path / "r.json")]) == 0
        at_base = [c for c in jac.call_args_list if tuple(c.args[1]) == (0, 0)]
        assert len(at_base) == 1

    @pytest.mark.parametrize("name,count", [
        ("germ-dihedral-radial", 2), ("germ-trivial-line", 1)])
    def test_equivariance_reports_generators_checked(self, tmp_path, docs, name, count):
        out = str(tmp_path / "report.json")
        assert main(["analyze", write(tmp_path, docs[name]), "--out", out]) == 0
        check = json.loads(open(out).read())["checks"][0]
        assert check == {"name": "germ-equivariance", "passed": True,
                         "generators_checked": count}

    def test_critical_value_exit_two(self, tmp_path, docs, capsys):
        path = write(tmp_path, docs["germ-z2-square-critical"])
        assert main(["analyze", path]) == 2
        assert "not a regular value" in capsys.readouterr().out

    def test_off_center_base_point_not_centered(self, tmp_path, docs, capsys):
        # the chart group moves (1, 0): the germ is fine, and the projection
        # at the base point is not built
        doc = json.loads(json.dumps(docs["germ-sum-squares"]))
        doc["payload"]["base_point"] = ["1", "0"]
        assert main(["analyze", write(tmp_path, doc)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("check failed: NotCentered: base point is not fixed "
                                "by the chart group\n")
        assert captured.out == ""

    def test_malformed_rational_exit_one(self, tmp_path, docs, capsys):
        doc = json.loads(json.dumps(docs["germ-mirror-line"]))
        doc["payload"]["p"] = ["1/0"]
        path = write(tmp_path, doc)
        assert main(["analyze", path]) == 1
        assert "payload.p[0]" in capsys.readouterr().err

    def test_generator_determinant_not_one_exits_at_once(self, tmp_path, docs, capsys):
        # det 10^4299: no power of the generator is the identity, so the
        # closure stops before its first product, with the order-bound message
        doc = json.loads(json.dumps(docs["germ-mirror-line"]))
        doc["payload"]["source"]["generators"][0][0][0] = "1e4299"
        path = write(tmp_path, doc)
        start = time.perf_counter()
        assert main(["analyze", path]) == 3
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().err == (
            "budget exceeded: ClosureBoundExceeded: closure exceeded 10000 elements\n")

    def test_missing_file_exit_one(self, capsys):
        assert main(["analyze", "/nonexistent/no.json"]) == 1

    def test_broken_equivariance_exit_two(self, tmp_path, docs, capsys):
        doc = json.loads(json.dumps(docs["germ-mirror-line"]))
        doc["payload"]["lift"] = [[{"coef": "1", "exps": [0, 1]}]]
        path = write(tmp_path, doc)
        assert main(["analyze", path]) == 2

    @pytest.mark.parametrize("name", ["germ-mirror-line", "germ-z2-square-critical"])
    def test_failed_cocycle_check_exit_two(self, tmp_path, docs, capsys, monkeypatch, name):
        # at a regular value and at a critical one, a failed cocycle check
        # is a failed mathematical check, and no report is written
        monkeypatch.setattr(germs, "cocycle_identities", lambda proj: germs.CocycleReport(
            4, False, tuple((1, 1, identity) for identity in germs._COCYCLE_IDENTITIES)))
        out = tmp_path / "r.json"
        assert main(["analyze", write(tmp_path, docs[name]), "--out", str(out)]) == 2
        assert capsys.readouterr() == (
            "", "check failed: AssertionError: cocycle identities fail on 1 pair(s)\n")
        assert not out.exists()

    def test_failed_cocycle_check_exit_two_under_optimize(self, tmp_path, docs):
        # python -O strips asserts; the failed cocycle check must still raise
        script = "\n".join([
            "import sys",
            "from orblocal import germs",
            "from orblocal.cli import main",
            "germs.cocycle_identities = lambda proj: germs.CocycleReport(",
            "    4, False, ((1, 1, 'product'), (1, 2, 'product')))",
            "print(sys.flags.optimize, main(['analyze', sys.argv[1]]))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script, write(tmp_path, docs["germ-mirror-line"])],
            env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout == "1 2\n"
        assert out.stderr == "check failed: AssertionError: cocycle identities fail on 2 pair(s)\n"

    @pytest.mark.parametrize("name", sorted(
        n for n, d in builtin_documents().items() if d["kind"] == "germ"))
    def test_base_point_split_once(self, tmp_path, docs, name, monkeypatch):
        # at a regular value whose base point is a lift point, the
        # faithfulness check reads that point's preimage model instead of
        # splitting the group on the same kernel again
        built = []
        real = germs.suborbifold_model

        def counting(chart, subspace, lam):
            built.append(subspace)
            return real(chart, subspace, lam)

        monkeypatch.setattr(germs, "suborbifold_model", counting)
        out = str(tmp_path / "r.json")
        code = main(["analyze", write(tmp_path, docs[name]), "--out", out])
        if code != 0:
            return
        payload = docs[name]["payload"]
        models = json.loads(open(out).read())["derived"]["preimage_models"]
        shared = any(not m["recentered"] and m["lift_point"] == payload["base_point"]
                     for m in models)
        assert len(built) == len(models) + (not shared)

    def test_recentering_reported(self, tmp_path, docs):
        path = write(tmp_path, docs["germ-z2-square"])
        out = str(tmp_path / "r.json")
        assert main(["analyze", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert all(m["recentered"] for m in report["derived"]["preimage_models"])

    def test_report_witnesses_reverify(self, tmp_path, docs):
        path = write(tmp_path, docs["germ-mirror-line"])
        out = str(tmp_path / "report.json")
        main(["analyze", path, "--out", out])
        report = json.loads(open(out).read())
        proj = parse_matrix(report["derived"]["projection"], "$")
        assert proj * proj == proj  # the serialized witness still checks out

    def test_deterministic_reports(self, tmp_path, docs):
        path = write(tmp_path, docs["germ-cycle-sum"])
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["analyze", path, "--out", o1])
        main(["analyze", path, "--out", o2])
        assert open(o1).read() == open(o2).read()


class TestSard:
    def test_fraction_and_determinism(self, tmp_path, docs):
        path = write(tmp_path, docs["germ-z2-square"])
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        args = ["sard", path, "--samples", "10000", "--seed", "42",
                "--box", "-2", "2"]
        assert main(args + ["--out", o1]) == 0
        assert main(args + ["--out", o2]) == 0
        b1, b2 = open(o1, "rb").read(), open(o2, "rb").read()
        assert b1 == b2
        report = json.loads(b1)
        sard = report["derived"]["sard"]
        num, _, den = sard["regular_fraction"].partition("/")
        frac = int(num) / int(den or "1")
        assert frac >= 0.999

    def test_box_count_mismatch(self, tmp_path, docs, capsys):
        path = write(tmp_path, docs["germ-z2-square"])
        assert main(["sard", path, "--samples", "10", "--seed", "1",
                     "--box", "-2", "2", "--box", "-2", "2"]) == 1

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_samples_below_one_input_error(self, tmp_path, docs, capsys, samples):
        path = write(tmp_path, docs["germ-z2-square"])
        out = tmp_path / "report.json"
        assert main(["sard", path, "--samples", samples, "--seed", "1",
                     "--box", "-2", "2", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "input error" in captured.err and "at least 1 sample" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("box, reason", [
        (["a", "1"], "not a rational number"),
        (["1/0", "1"], "not a rational number"),
        (["inf", "1"], "not a rational number"),
        (["0", "nan"], "not a rational number"),
        (["2", "-2"], "empty interval"),
        (["1e308", "1.7e308"], "not a finite float"),
    ])
    def test_bad_box_input_error(self, tmp_path, docs, capsys, box, reason):
        path = write(tmp_path, docs["germ-z2-square"])
        out = tmp_path / "report.json"
        assert main(["sard", path, "--samples", "5", "--seed", "1",
                     "--box", *box, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "input error: at $.box[0]: " in captured.err and reason in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("box", [
        ["-1/100000000", "1/100000000"], ["-1e-8", "1e-8"], ["-.5", "-1/3"]])
    def test_negative_rational_box_ends(self, tmp_path, docs, box):
        path = write(tmp_path, docs["germ-z2-square"])
        out = tmp_path / "report.json"
        assert main(["sard", path, "--samples", "10", "--seed", "1",
                     "--box", *box, "--out", str(out)]) == 0
        sard = json.loads(out.read_text())["derived"]["sard"]
        assert sard["samples"] == 10

    def test_negative_box_end_not_rational(self, tmp_path, docs, capsys):
        path = write(tmp_path, docs["germ-z2-square"])
        assert main(["sard", path, "--samples", "5", "--seed", "1",
                     "--box", "-1/0", "1"]) == 1
        assert "at $.box[0]: not a rational number" in capsys.readouterr().err

    def test_unsupported_lift_exit_two(self, tmp_path, docs):
        path = write(tmp_path, docs["germ-sum-squares"])
        assert main(["sard", path, "--samples", "10", "--seed", "1",
                     "--box", "-2", "2"]) == 2


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["frobnicate", "x.json"],
        [],
        ["sard", "x.json", "--samples", "5", "--seed", "1", "--box", "1"],
        ["sard", "x.json", "--samples", "five", "--seed", "1", "--box", "0", "1"],
        ["strata", "x.json", "--bogus"],
        ["corpus", "walk"],
    ])
    def test_usage_error_exits_one(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: orblocal" in captured.err and "error: " in captured.err

    def test_module_usage_error_exits_one(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-m", "orblocal", "strata"], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 1
        assert "the following arguments are required: file" in out.stderr

    @pytest.mark.parametrize("argv", [["--version"], ["sard", "--help"]])
    def test_version_and_help_exit_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out


def top_level_main(argv):
    """main with every argv parsed by build_parser().parse_args, the
    top-level parser, as when no command's own parser is looked up."""
    with mock.patch.object(build_parser(), "commands", {}):
        return main(argv)


def outcome(run, argv, capsys):
    """(exit code, stdout, stderr) of run(argv), exit code from a return or
    a SystemExit."""
    try:
        code = run(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseEquivalence:
    """main parses argv with the named command's own parser; each case gives
    the exit code, stdout and stderr of the top-level parse."""

    VALID = [
        ["analyze", "germ-mirror-line"],
        ["sard", "germ-z2-square", "--samples", "50", "--seed", "3", "--box", "-2", "2"],
        ["strata", "chart-quarter-plane"],
        ["obstruct", "obstruction-z2-line"],
        ["classify1", "components-four-types"],
        ["retraction", "atlas-disk-reflection"],
        ["corpus", "run", "--anchor", "sard"],
    ]

    @pytest.mark.parametrize("argv", [
        ["analyze"],
        ["frobnicate", "x.json"],
        [],
        ["sard", "x.json", "--samples", "5", "--seed", "1", "--box", "1"],
        ["sard", "x.json", "--samples", "five", "--seed", "1", "--box", "0", "1"],
        ["strata", "x.json", "--bogus"],
        ["corpus", "walk"],
        ["--version"],
        ["strata", "x.json", "--version"],
    ] + [[command, "--help"] for command in
         ("analyze", "sard", "strata", "obstruct", "classify1", "retraction", "corpus")])
    def test_usage_help_and_version(self, argv, capsys):
        assert outcome(main, argv, capsys) == outcome(top_level_main, argv, capsys)

    @pytest.mark.parametrize("argv", VALID, ids=[argv[0] for argv in VALID])
    def test_valid_runs(self, argv, tmp_path, docs, capsys):
        if argv[0] != "corpus":
            argv = [argv[0], write(tmp_path, docs[argv[1]])] + argv[2:]
        ap = build_parser()
        assert (ap.commands[argv[0]].parse_args(argv[1:], argparse.Namespace(command=argv[0]))
                == ap.parse_args(argv))
        # the top-level parser is not run
        with mock.patch.object(ap, "parse_known_args", side_effect=AssertionError):
            got = outcome(main, argv, capsys)
        assert got == outcome(top_level_main, argv, capsys)
        assert got[0] == 0 and got[1] and not got[2]


class TestStrata:
    def test_quarter_plane(self, tmp_path, docs):
        path = write(tmp_path, docs["chart-quarter-plane"])
        out = str(tmp_path / "s.json")
        assert main(["strata", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["derived"]["singular_count"] == 3
        dims = [s["dimension"] for s in report["derived"]["strata"]
                if s["singular"]]
        assert dims == [1, 1, 0]

    def test_bare_chart_payload(self, tmp_path, docs):
        path = write(tmp_path, docs["chart-quarter-plane"]["payload"])
        assert main(["strata", path]) == 0

    def test_infinite_group_exits_as_budget(self, tmp_path, capsys):
        # a shear generates an infinite group: closure stops at the order
        # bound, a resource limit and not a failed check
        shear = {"dim": 2, "boundary": False,
                 "generators": [[["1", "1"], ["0", "1"]]]}
        assert main(["strata", write(tmp_path, shear)]) == 3
        assert capsys.readouterr().err.startswith(
            "budget exceeded: ClosureBoundExceeded: ")


class TestObstruct:
    def test_impossible(self, tmp_path, docs):
        path = write(tmp_path, docs["obstruction-z2-line"])
        out = str(tmp_path / "o.json")
        assert main(["obstruct", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["derived"]["verdict"] == "impossible"
        assert report["derived"]["reason"] == "kernel_on_point"


class TestClassify1:
    def test_four_types(self, tmp_path, docs):
        path = write(tmp_path, docs["components-four-types"])
        out = str(tmp_path / "c.json")
        assert main(["classify1", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["derived"]["types"] == ["a", "b", "c", "d"]
        assert report["derived"]["boundary_points"] is None

    def test_parity_when_applicable(self, tmp_path):
        doc = {"kind": "component-list", "name": "ab", "anchor": "parity",
               "payload": {"components": [
                   {"shape": "loop"},
                   {"shape": "interval", "ends": ["boundary", "boundary"]}]}}
        path = write(tmp_path, doc)
        out = str(tmp_path / "c.json")
        assert main(["classify1", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["derived"]["boundary_points"] == 2
        assert report["derived"]["even"] is True


class TestRetraction:
    def test_disk_contradiction(self, tmp_path, docs):
        path = write(tmp_path, docs["atlas-disk-reflection"])
        out = str(tmp_path / "r.json")
        assert main(["retraction", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["derived"]["status"] == "contradiction"
        assert report["derived"]["contradiction_kind"] == "forced_codim1_mirror"

    def test_type_c_hypothesis_not_met(self, tmp_path, docs):
        path = write(tmp_path, docs["atlas-type-c"])
        out = str(tmp_path / "r.json")
        assert main(["retraction", path, "--out", out]) == 0
        report = json.loads(open(out).read())
        assert report["derived"]["status"] == "hypothesis not met"


@pytest.mark.parametrize("command", ["strata", "obstruct", "classify1", "retraction"])
@pytest.mark.parametrize("text", ["3", "null", "true"])
def test_scalar_document_input_error(tmp_path, capsys, command, text):
    path = tmp_path / "scalar.json"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    assert "input error" in capsys.readouterr().err


# a built-in document and the extra arguments for each command that reads a file
READER_RUNS = {
    "analyze": ("germ-z2-square", []),
    "sard": ("germ-z2-square", ["--samples", "5", "--seed", "1", "--box", "-1", "1"]),
    "strata": ("chart-quarter-plane", []),
    "obstruct": ("obstruction-z2-line", []),
    "classify1": ("components-four-types", []),
    "retraction": ("atlas-disk-reflection", []),
}


def write_bytes(tmp_path, data, name="doc.json"):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("command", sorted(READER_RUNS))
class TestDocumentEncoding:
    """A document is read as UTF-8 with text mode's newline translation."""

    def test_invalid_utf8_is_an_input_error(self, tmp_path, docs, capsys, command):
        name, extra = READER_RUNS[command]
        data = json.dumps(docs[name]).encode("utf-8")
        # a byte that starts no UTF-8 sequence, and a sequence cut short
        for bad in (data.replace(b'"name": "', b'"name": "\xff', 1), data + b" \xe2\x82"):
            path = write_bytes(tmp_path, bad)
            assert main([command, path, *extra]) == 1
            err = capsys.readouterr().err
            assert err.startswith("input error: at $: invalid UTF-8 in %s ('utf-8' codec "
                                  "can't decode " % path)
            assert err.count("\n") == 1

    def test_crlf_and_cr_read_as_lf(self, tmp_path, docs, capsys, command):
        name, extra = READER_RUNS[command]
        lf = json.dumps(docs[name], indent=2).encode("utf-8")
        assert main([command, write_bytes(tmp_path, lf), *extra]) == 0
        want = capsys.readouterr()
        for newline in (b"\r\n", b"\r"):
            path = write_bytes(tmp_path, lf.replace(b"\n", newline))
            assert main([command, path, *extra]) == 0
            got = capsys.readouterr()
            assert (got.out, got.err) == (want.out, want.err)
        # a JSON error is placed as in the LF text
        broken = b'{\n  "kind":\n  x}'
        path = write_bytes(tmp_path, broken)
        assert main([command, path, *extra]) == 1
        want = capsys.readouterr().err
        assert want.endswith("(Expecting value: line 3 column 3 (char 14))\n")
        for newline in (b"\r\n", b"\r"):
            assert main([command, write_bytes(tmp_path, broken.replace(b"\n", newline)),
                         *extra]) == 1
            assert capsys.readouterr().err == want

    def test_byte_order_mark_is_an_input_error(self, tmp_path, docs, capsys, command):
        name, extra = READER_RUNS[command]
        path = write_bytes(tmp_path, b"\xef\xbb\xbf" + json.dumps(docs[name]).encode("utf-8"))
        assert main([command, path, *extra]) == 1
        assert capsys.readouterr().err == (
            "input error: at $: invalid JSON in %s (Unexpected UTF-8 BOM (decode using "
            "utf-8-sig): line 1 column 1 (char 0))\n" % path)

    def test_missing_file_cannot_be_read(self, tmp_path, capsys, command):
        path = str(tmp_path / "missing.json")
        assert main([command, path, *READER_RUNS[command][1]]) == 1
        assert capsys.readouterr().err == (
            "input error: at $: cannot read %s ([Errno 2] No such file or directory: %r)\n"
            % (path, path))


@pytest.mark.parametrize("command", sorted(READER_RUNS) + ["corpus"])
def test_unwritable_out_is_an_input_error(tmp_path, docs, capsys, command):
    if command == "corpus":
        argv = ["corpus", "run", "--anchor", "obstruction"]
    else:
        name, extra = READER_RUNS[command]
        argv = [command, write(tmp_path, docs[name]), *extra]
    out = str(tmp_path / "missing-dir" / "report.json")
    assert main([*argv, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err == (
        "input error: at $.out: cannot write %s ([Errno 2] No such file or directory: %r)\n"
        % (out, out))
    assert captured.out == ""  # the report is written before the summary is printed
    assert not (tmp_path / "missing-dir").exists()


BAD_CHART = {"dim": 2, "boundary": False, "generators": [[["1", "0"], ["0", "x"]]]}
LINE = {"dim": 1, "boundary": False, "generators": []}
MIRROR_LINE = {
    "source": {"dim": 2, "boundary": False, "generators": [[["1", "0"], ["0", "-1"]]]},
    "target": LINE, "theta_gen_images": [[["1"]]],
    "lift": [[{"coef": "1", "exps": [1, 0]}]],
    "base_point": ["0", "0"], "p": ["0"], "preimage_lifts": [["0", "0"]]}
X_AND_Y = [[{"coef": "1", "exps": [1, 0]}], [{"coef": "1", "exps": [0, 1]}]]


def germ_with(**fields):
    return dict(MIRROR_LINE, **fields)


ATLAS = builtin_documents()["atlas-disk-reflection"]["payload"]
TYPE_C = builtin_documents()["atlas-type-c"]["payload"]


def atlas_with_mirror_end(**fields):
    """ATLAS with fields set on its mirror end, pieces[1].ends[0]."""
    edge, mirror = ATLAS["pieces"]
    end, glue = mirror["ends"]
    return dict(ATLAS, pieces=[edge, dict(mirror, ends=[dict(end, **fields), glue])])


@pytest.mark.parametrize("command, payload, where", [
    ("strata", BAD_CHART, ".generators[0][1][1]: bad rational 'x'"),
    ("obstruct", {"source": BAD_CHART, "target": LINE,
                  "theta_gen_images": [[["1"]]]},
     ".source.generators[0][1][1]: bad rational 'x'"),
    ("classify1", {"comps": []}, ".components: missing required field"),
    ("retraction", {}, ".charts: expected a nonempty array of charts"),
    # a length that does not fit its chart is an input error at its field
    ("strata", {"dim": 2, "generators": [[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]]},
     ".generators[0]: expected a 2x2 matrix, got 3x3"),
    ("obstruct", {"source": {"dim": 1, "generators": [[["-1"]]]}, "target": LINE,
                  "theta_gen_images": [[["1", "0"], ["0", "1"]]]},
     ".theta_gen_images[0]: expected a 1x1 matrix, got 2x2"),
    ("analyze", germ_with(lift=X_AND_Y), ".lift: expected 1 output coordinates, got 2"),
    ("sard", germ_with(lift=X_AND_Y), ".lift: expected 1 output coordinates, got 2"),
    ("analyze", germ_with(p=["0", "0"]), ".p: expected 1 coordinates, got 2"),
    ("analyze", germ_with(base_point=["0"]), ".base_point: expected 2 coordinates, got 1"),
    ("analyze", germ_with(preimage_lifts=[["0", "0"], ["0"]]),
     ".preimage_lifts[1]: expected 2 coordinates, got 1"),
    # a field that must be an array and is not
    ("retraction", dict(ATLAS, germs=5), ".germs: expected an array of germs"),
    ("retraction", dict(ATLAS, pieces=5), ".pieces: expected an array of pieces"),
    ("retraction", dict(ATLAS, embeddings=5), ".embeddings: expected an array of embeddings"),
    ("retraction", dict(ATLAS, germs=[dict(ATLAS["germs"][0], preimage_lifts=5)]),
     ".germs[0].preimage_lifts: expected an array of points"),
    ("classify1", {"components": 5}, ".components: expected an array of components"),
    # a chart index on a piece or an end must name a chart of the atlas
    ("retraction", atlas_with_mirror_end(chart=7),
     ".pieces[1].ends[0].chart: expected a chart index from 0 to 1"),
    ("retraction", atlas_with_mirror_end(chart=-1),
     ".pieces[1].ends[0].chart: expected a chart index from 0 to 1"),
    ("retraction", dict(ATLAS, pieces=[dict(ATLAS["pieces"][0], chart=2), ATLAS["pieces"][1]]),
     ".pieces[0].chart: expected a chart index from 0 to 1"),
    # an end's point has the atlas's dimension, and the atlas has one
    ("retraction", atlas_with_mirror_end(point=["0", "0", "0"]),
     ".pieces[1].ends[0].point: expected 2 coordinates, got 3"),
    ("retraction", dict(TYPE_C, charts=[TYPE_C["charts"][0], {"dim": 2, "generators": []}]),
     ".charts[1].dim: expected 1, the dimension of charts[0], got 2"),
])
def test_input_error_paths(tmp_path, capsys, command, payload, where):
    # a bare payload is the document itself; a scenario wrapper holds it
    # under $.payload
    kind = {"strata": "chart", "obstruct": "obstruction", "analyze": "germ",
            "sard": "germ", "classify1": "component-list", "retraction": "atlas"}[command]
    extra = ["--samples", "5", "--seed", "1", "--box", "-1", "1"] if command == "sard" else []
    wrapped = {"kind": kind, "name": "bad", "anchor": "test", "payload": payload}
    for doc, prefix in [(payload, "$"), (wrapped, "$.payload")]:
        assert main([command, write(tmp_path, doc, "doc.json"), *extra]) == 1
        assert "input error: at %s%s" % (prefix, where) in capsys.readouterr().err


@pytest.mark.parametrize("command, extra", [
    ("analyze", []), ("sard", ["--samples", "50", "--seed", "3", "--box", "-1", "1"])])
def test_bare_germ_payload_reads_as_wrapped(tmp_path, docs, command, extra):
    # every file command reads a bare payload as the payload of a wrapper
    doc = docs["germ-z2-square"]
    reports = []
    for text in (doc, doc["payload"]):
        out = tmp_path / "report.json"
        assert main([command, write(tmp_path, text), *extra, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    wrapped, bare = reports
    assert bare["derived"] == wrapped["derived"]
    assert (bare["scenario"], bare["anchor"]) == ("germ", "")


@pytest.mark.parametrize("literal", [
    "1e999999999", "-1E-999999999", "0e+999999999", "1e5000", "1.5e4299", "1e-4300",
    pytest.param("1e" + "9" * 5000, id="5000-digit-exponent")])
def test_exponent_literals_rejected_quickly(tmp_path, capsys, literal):
    # Fraction would build 10^exponent first: past sys.get_int_max_str_digits()
    # digits that never finishes, or gives a value that str() cannot write
    reason = "bad rational %r (its exponent gives more than %d digits)" % (
        literal, sys.get_int_max_str_digits())
    chart = {"dim": 1, "generators": [[[literal]]]}
    germ_p = {"kind": "germ", "payload": germ_with(p=[literal])}
    runs = [(["strata", write(tmp_path, chart, "chart.json")], "$.generators[0][0][0]"),
            (["analyze", write(tmp_path, germ_p, "p.json")], "$.payload.p[0]")]
    germ = write(tmp_path, {"kind": "germ", "payload": MIRROR_LINE}, "germ.json")
    for box in ([literal, "1"], ["-1", literal]):
        runs.append((["sard", germ, "--samples", "5", "--seed", "1", "--box", *box],
                     "$.box[0]"))
    for argv, where in runs:
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 0.1
        assert "input error: at %s: %s" % (where, reason) in capsys.readouterr().err


def test_exponent_literal_within_the_limit(tmp_path):
    # 10^4299 has 4300 digits, which str() still writes
    lift = [[{"coef": "1e4299", "exps": [1, 0]}]]
    path = write(tmp_path, {"kind": "germ", "payload": germ_with(lift=lift)})
    out = tmp_path / "report.json"
    assert main(["analyze", path, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["derived"]["preimage_models"][0]["dim"] == 1


class TestParserReuse:
    def test_calls_do_not_share_arguments(self, tmp_path, docs, capsys):
        strata_out = tmp_path / "s.json"
        path = write(tmp_path, docs["chart-quarter-plane"], "chart.json")
        assert main(["strata", path, "--out", str(strata_out)]) == 0
        report = json.loads(strata_out.read_text())
        assert report["scenario"] == "chart-quarter-plane"
        assert report["derived"]["singular_count"] == 3
        strata_out.unlink()
        capsys.readouterr()

        # no --out: the report goes to stdout, not to the previous file
        path = write(tmp_path, docs["obstruction-z2-line"], "obstruction.json")
        assert main(["obstruct", path]) == 0
        printed = capsys.readouterr().out
        report = json.loads(printed[printed.index("\n{") + 1:])
        assert report["scenario"] == "obstruction-z2-line"
        assert report["derived"]["verdict"] == "impossible"
        assert not strata_out.exists()

        classify_out = tmp_path / "c.json"
        path = write(tmp_path, docs["components-four-types"], "components.json")
        assert main(["classify1", path, "--out", str(classify_out)]) == 0
        report = json.loads(classify_out.read_text())
        assert report["derived"]["types"] == ["a", "b", "c", "d"]
        assert not strata_out.exists()
        assert build_parser() is build_parser()


class TestCorpus:
    def test_full_run_passes(self, capsys):
        assert main(["corpus", "run"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "corpus:" in out

    def test_full_run_passes_under_optimize(self):
        # every corpus scenario, checked by explicit raises with asserts stripped
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-m", "orblocal", "corpus", "run"],
                             env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.splitlines()[-1] == "corpus: 52/52 passed"

    def test_anchor_filter(self, capsys):
        assert main(["corpus", "run", "--anchor", "obstruction"]) == 0
        out = capsys.readouterr().out
        names = [l.split()[1] for l in out.splitlines() if l.startswith("PASS")]
        assert names and all("obstruction" in n for n in names)

    def test_corrupt_mode_nonzero_exit(self, capsys, monkeypatch):
        def fail():
            raise AssertionError("intentional failure")

        builtin = corpus.scenarios()
        monkeypatch.setattr(corpus, "scenarios", lambda: builtin + (
            corpus.Scenario("corrupted-self-test", "self-test", fail),))
        assert main(["corpus", "run"]) == 2
        assert "FAIL corrupted-self-test" in capsys.readouterr().out

    def test_wrong_expectation_fails_under_optimize(self, tmp_path):
        # the corpus compares expected values with explicit raises, so a
        # wrong expectation fails with asserts stripped, and --out lists it
        out_path = str(tmp_path / "corpus.json")
        script = "\n".join([
            "import sys",
            "from orblocal import corpus",
            "from orblocal.cli import main",
            "sc = next(s for s in corpus.scenarios() if s.name == 'strata-quarter-plane')",
            "wrong = corpus.Scenario(sc.name, sc.anchor, sc.compute, {'singular_dims': [1, 0]})",
            "corpus.scenarios = lambda: (wrong,)",
            "print(sys.flags.optimize, main(['corpus', 'run', '--out', sys.argv[1]]))",
        ])
        src = os.path.dirname(os.path.dirname(os.path.abspath(orblocal.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", script, out_path], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[0].startswith("FAIL strata-quarter-plane")
        assert lines[1] == "    singular_dims: expected [1, 0], got [1, 1, 0]"
        assert lines[-1] == "1 2"
        (result,) = json.loads(open(out_path).read())["results"]
        assert result["passed"] is False
        assert result["detail"]["mismatches"] == [["singular_dims", [1, 0], [1, 1, 0]]]

    def test_sard_report_byte_reproducible(self, tmp_path):
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["corpus", "run", "--anchor", "sard", "--out", o1]) == 0
        assert main(["corpus", "run", "--anchor", "sard", "--out", o2]) == 0
        first = open(o1, "rb").read()
        assert json.loads(first)["results"]
        assert first == open(o2, "rb").read()


# the values a report holds: text with non-ASCII, control and escape
# characters, big and negative ints, bools, None, and containers, empty or
# nested
REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 60, 10 ** 60)
    | st.text(alphabet=st.characters(), max_size=12)
    | st.sampled_from(["", "\"\\/\b\f\n\r\t", "\x00\x1f\x7f", "é☃\U0001f600", "\ud800"]),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=3).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=25)


class TestReportWriter:
    @settings(max_examples=300, deadline=None)
    @given(REPORT_VALUES)
    def test_writes_what_json_dumps_writes(self, v):
        assert cli._json(v) == json.dumps(v, indent=2, sort_keys=True)

    @pytest.mark.parametrize("v", [
        1.5, Fraction(1, 2), {1: "a"}, {"a": [0, {None: 1}]}, [{"x": float("nan")}]])
    def test_other_types_raise(self, v):
        with pytest.raises(TypeError):
            cli._json(v)

    def test_out_file_holds_the_stdout_report(self, tmp_path, docs, capsys):
        path = write(tmp_path, docs["germ-dihedral-radial"])
        out = tmp_path / "report.json"
        assert main(["analyze", path]) == 0
        stdout = capsys.readouterr().out
        assert main(["analyze", path, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("PASS ") and summary.count("\n") == 1
        assert stdout.encode() == summary.encode() + out.read_bytes()
