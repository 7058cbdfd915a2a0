import json
import os
import subprocess
import sys
import time
from unittest import mock

import pytest

import orblocal

from orblocal import __version__, corpus, germs
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
])
def test_input_error_paths(tmp_path, capsys, command, payload, where):
    # a bare payload is the document itself; a scenario wrapper holds it
    # under $.payload.  analyze and sard read wrapped germ documents only.
    kind = {"strata": "chart", "obstruct": "obstruction", "analyze": "germ",
            "sard": "germ", "classify1": "component-list", "retraction": "atlas"}[command]
    extra = ["--samples", "5", "--seed", "1", "--box", "-1", "1"] if command == "sard" else []
    wrapped = {"kind": kind, "name": "bad", "anchor": "test", "payload": payload}
    cases = [(wrapped, "$.payload")]
    if kind != "germ":
        cases.insert(0, (payload, "$"))
    for doc, prefix in cases:
        assert main([command, write(tmp_path, doc, "doc.json"), *extra]) == 1
        assert "input error: at %s%s" % (prefix, where) in capsys.readouterr().err


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
