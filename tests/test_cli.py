import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from weylforge import cli, suite


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "weylforge.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_list_identities_format(capsys):
    assert cli.main(["list", "identities"]) == 0
    out = capsys.readouterr().out
    assert "bochner2.teo-sbf  [Einstein,4D]  jets:5" in out
    assert "integral.prop1  out-of-scope(global)" in out
    assert "commutek.k3" in out


def test_list_manifolds(capsys):
    assert cli.main(["list", "manifolds"]) == 0
    out = capsys.readouterr().out
    assert "schwarzschild-de-sitter" in out
    line = next(l for l in out.splitlines()
                if l.startswith("schwarzschild-de-sitter"))
    assert "Einstein" in line and "gradW!=0" in line
    pert = next(l for l in out.splitlines()
                if l.startswith("perturbed-schwarzschild"))
    assert "negative-control" in pert


def test_unknown_manifold_exits_2(capsys):
    code = cli.main(["verify", "--manifolds", "s5", "--points", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "s5" in err


def test_unknown_identity_exits_2_and_lists_valid(capsys):
    code = cli.main(["verify", "--identities", "not.an.id", "--points", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "bianchi1.weyl" in err          # the valid ids are enumerated


def test_bad_jet_order_exits_2(capsys):
    code = cli.main(["verify", "--jet-order", "11", "--points", "1",
                     "--manifolds", "flat-r4"])
    assert code == 2


def test_non_integer_jet_order_names_the_flag(capsys):
    code = cli.main(["verify", "--jet-order", "abc", "--points", "1",
                     "--manifolds", "flat-r4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--jet-order" in err and "'abc'" in err
    assert "invalid literal" not in err


def test_jet_order_2_is_rejected_before_any_point_runs(capsys):
    """The gates read nabla W at every point, and order 2 leaves W only."""
    args = ["verify", "--points", "1", "--manifolds", "s4-round,schwarzschild",
            "--format", "text"]
    assert cli.main(args + ["--jet-order", "2"]) == 2
    err = capsys.readouterr().err
    assert "3..8" in err and "gates read nabla W" in err
    assert cli.main(args + ["--jet-order", "3"]) == 0


@pytest.mark.parametrize("target", ["missing/r.json", ""])
def test_bad_out_target_exits_2_before_any_point_runs(target, tmp_path,
                                                      monkeypatch, capsys):
    """A report target in a missing directory, or a directory itself."""
    def not_run(cfg):
        raise AssertionError("run_suite ran")

    monkeypatch.setattr(suite, "run_suite", not_run)
    code = cli.main(["verify", "--points", "1", "--out",
                     str(tmp_path / target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --out") and err.count("\n") == 1


def test_out_write_error_exits_2_without_traceback(tmp_path, monkeypatch,
                                                   capsys):
    """The report's directory is gone by the time the run ends."""
    folder = tmp_path / "gone"
    folder.mkdir()
    run = suite.run_suite

    def run_then_remove(cfg):
        report = run(cfg)
        folder.rmdir()
        return report

    monkeypatch.setattr(suite, "run_suite", run_then_remove)
    code = cli.main(["verify", "--manifolds", "flat-r4", "--identities",
                     "bianchi1.weyl", "--points", "1", "--out",
                     str(folder / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot write --out") and err.count("\n") == 1


def test_deterministic_reports_are_byte_identical(tmp_path):
    args = ["verify", "--manifolds", "s2xs2-unequal",
            "--identities", "bianchi1.weyl,gradweyl.general,key2.full",
            "--points", "3", "--seed", "7", "--deterministic",
            "--format", "json"]
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(f1)]) == 0
    assert cli.main(args + ["--out", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()



def test_deterministic_reports_are_byte_identical_across_processes():
    """No contraction order may depend on the string hash seed."""
    args = [sys.executable, "-m", "weylforge.cli", "verify",
            "--manifolds", "schwarzschild",
            "--identities", "bochner2.pro-boch-plus,bochnerk.k2-minus",
            "--points", "1", "--seed", "42", "--deterministic",
            "--format", "json"]
    outputs = []
    for hash_seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run(args, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_deterministic_reports_are_byte_identical_across_blas_threads():
    """No reported number may depend on how many BLAS threads run.

    commutek.k4 has a 65,536-entry residual, long enough for BLAS to split
    a reduction across threads; the jet contractions run as BLAS products.
    """
    args = [sys.executable, "-m", "weylforge.cli", "verify",
            "--manifolds", "schwarzschild,cp2-fubini-study",
            "--identities",
            "bochner2.pro-boch-plus,bochnerk.k2-minus,commutek.k4",
            "--points", "2", "--seed", "42", "--deterministic",
            "--format", "json"]
    outputs = []
    for blas_threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                   PYTHONHASHSEED="0")
        proc = subprocess.run(args, capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]

def test_json_schema_and_finiteness(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--manifolds", "s4-round", "--points", "2",
                     "--identities", "algebra.quadratic,weyl.decomposition",
                     "--deterministic", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"config", "environment", "results", "summary"}
    assert "timestamp" not in doc["environment"]
    for row in doc["results"]:
        assert set(row) == {"identity_id", "manifold", "point",
                            "residual_abs", "scale", "residual_rel",
                            "status", "jet_order_used"}
        for key in ("residual_abs", "scale", "residual_rel"):
            assert isinstance(row[key], float)


def test_render_json_writes_what_json_dumps_writes():
    """render_json writes the results rows from a fixed layout; its output
    is byte for byte json.dumps(doc, indent=2, sort_keys=True) on a real
    report, on one with non-finite residuals and on one with no rows."""
    real = suite.run_suite(suite.RunConfig(
        manifolds=("schwarzschild", "flat-r4"), identities=("all",),
        points_per_manifold=1, seed=5))
    row = real.results[0]
    nonfinite = dataclasses.replace(real, results=[
        dataclasses.replace(row, residual_abs=math.nan, scale=math.inf,
                            residual_rel=-math.inf), row])
    empty = dataclasses.replace(real, results=[])
    for report in (real, nonfinite, empty):
        doc = {"config": report.config, "environment": report.environment,
               "results": [r.as_dict() for r in report.results],
               "summary": report.summary}
        assert suite.render_json(report) == \
            json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _summary_row(rel, residual_abs=1e-20):
    return suite.IdentityCheckResult("key2.full", "flat-r4",
                                     (0.0, 0.0, 0.0, 0.0), residual_abs, 1.0,
                                     rel, "pass", 4)


def test_summary_max_residual_is_nan_once_a_row_is_nan():
    """A NaN residual_rel sets its identity's max to NaN, in either row
    order: max() alone keeps the finite value when it comes first."""
    for rels in ((math.nan, 1e-20), (1e-20, math.nan), (0.0, math.nan)):
        summary, code = suite._summarize(
            [_summary_row(rel) for rel in rels], [], [])
        assert math.isnan(summary["per_identity"]["key2.full"]
                          ["max_residual_rel"]), rels
        assert code == 1
    summary, _ = suite._summarize([_summary_row(r) for r in (1e-20, 3e-9)],
                                  [], [])
    assert summary["per_identity"]["key2.full"]["max_residual_rel"] == 3e-9


def test_summary_lists_a_nonfinite_row_once():
    """A row with several non-finite fields is one entry of `nonfinite`,
    and the CLI names it once."""
    rows = [_summary_row(math.nan, residual_abs=math.nan),
            _summary_row(1e-20)]
    summary, code = suite._summarize(rows, [], [])
    assert summary["nonfinite"] == ["key2.full@flat-r4(0.0, 0.0, 0.0, 0.0)"]
    assert code == 1 and not summary["ok"]


def test_timestamp_present_without_deterministic(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--manifolds", "flat-r4", "--points", "1",
                     "--identities", "bianchi1.weyl", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert "timestamp" in doc["environment"]


def test_csv_columns(tmp_path):
    out = tmp_path / "r.csv"
    code = cli.main(["verify", "--manifolds", "flat-r4", "--points", "2",
                     "--identities", "bianchi1.weyl", "--format", "csv",
                     "--deterministic", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ("identity_id,manifold,x1,x2,x3,x4,residual_abs,"
                        "scale,residual_rel,status,jet_order")
    assert len(lines) == 3
    assert all(len(l.split(",")) == 11 for l in lines[1:])


def test_tolerance_override_forces_failure(tmp_path):
    """--tol fails a row below its measured residual and passes it at it.

    The row is the largest residual of three points: a round-off residual
    can come out exactly 0 at any one point."""
    out = tmp_path / "r.json"
    args = ["verify", "--manifolds", "schwarzschild",
            "--identities", "key2.full", "--points", "3", "--deterministic",
            "--out", str(out)]
    assert cli.main(args) == 0
    rels = [r["residual_rel"] for r in json.loads(out.read_text())["results"]]
    worst = rels.index(max(rels))
    rel = rels[worst]
    assert rel > 0.0
    assert cli.main(args + ["--tol", f"key2.full={rel / 2!r}"]) == 1
    assert json.loads(out.read_text())["results"][worst]["status"] == "fail"
    assert cli.main(args + ["--tol", f"key2.full={rel!r}"]) == 0
    assert {r["status"] for r in json.loads(out.read_text())["results"]} == \
        {"pass"}


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tolerance_override_must_be_finite_and_positive(value, capsys):
    code = cli.main(["verify", "--manifolds", "flat-r4",
                     "--identities", "key2.full", "--points", "1",
                     "--tol", f"key2.full={value}"])
    assert code == 2
    assert "key2.full" in capsys.readouterr().err


def test_non_numeric_tolerance_names_the_flag_and_identity(capsys):
    code = cli.main(["verify", "--manifolds", "flat-r4",
                     "--identities", "key2.full", "--points", "1",
                     "--tol", "key2.full=abc"])
    assert code == 2
    err = capsys.readouterr().err
    assert "--tol key2.full" in err and "'abc'" in err
    assert "could not convert" not in err


def test_negative_control_run_exits_0(tmp_path):
    """Expected failure of the Einstein hypothesis is a met expectation."""
    out = tmp_path / "r.json"
    code = cli.main(["verify", "--manifolds", "perturbed-schwarzschild",
                     "--identities", "bochner2.teo-sbf", "--points", "3",
                     "--deterministic", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    statuses = {row["status"] for row in doc["results"]}
    assert statuses == {"expected-fail"}
    controls = doc["summary"]["negative_controls"]["perturbed-schwarzschild"]
    assert controls["bochner2.teo-sbf"]["met"] is True


def test_conformal_phi_flag(tmp_path):
    code = cli.main(["verify", "--manifolds", "conformally-flat",
                     "--identities", "weyl.conformal-flat", "--points", "2",
                     "--conformal-phi", "2,0,0,0=0.05",
                     "--conformal-phi", "0,1,0,1=-0.04",
                     "--deterministic", "--out", str(tmp_path / "r.json")])
    assert code == 0
    code = cli.main(["verify", "--manifolds", "conformally-flat",
                     "--identities", "weyl.conformal-flat", "--points", "1",
                     "--conformal-phi", '{"1,0,0,0": 0.1}',
                     "--deterministic", "--out", str(tmp_path / "r2.json")])
    assert code == 0
    assert cli.main(["verify", "--conformal-phi", "bogus",
                     "--points", "1"]) == 2


@pytest.mark.parametrize("phi", ['{"1,0": 0.1}', '{"-1,0,0,0": 0.1}',
                                 '{"1,0,0,0,1": 0.1}', "1,0=0.1",
                                 "-1,0,0,0=0.1", "1,0,0,0,1=0.1",
                                 "1,0,x,0=0.1"])
def test_conformal_phi_exponents_are_four_non_negative_integers(phi, capsys):
    """Both forms of --conformal-phi reject a malformed exponent tuple as a
    configuration error before any chart is built."""
    assert cli.main(["verify", "--manifolds", "conformally-flat",
                     "--points", "1", f"--conformal-phi={phi}"]) == 2
    assert "bad exponent tuple" in capsys.readouterr().err


@pytest.mark.parametrize("phi,shown", [
    ('{"1,0,0,0": null}', "None"), ('{"1,0,0,0": [1]}', "[1]"),
    ('{"1,0,0,0": true}', "True"), ('{"1,0,0,0": "0.1"}', "'0.1'"),
    ('{"1,0,0,0": 1e999}', "inf"), ("1,0,0,0=abc", "'abc'"),
    ("1,0,0,0=nan", "nan"), ("1,0,0,0=inf", "inf"),
    ("1,0,0,0=-inf", "-inf")])
def test_conformal_phi_coefficients_are_finite_real_numbers(phi, shown,
                                                            capsys):
    """A coefficient that is not a finite real number is a configuration
    error that names the flag, the item and the value, before any chart is
    built: no traceback, and no run that reports W != 0 on the
    conformally flat chart."""
    assert cli.main(["verify", "--manifolds", "conformally-flat",
                     "--points", "1", f"--conformal-phi={phi}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --conformal-phi")
    assert f"coefficient {shown} in {phi!r}" in err
    assert "could not convert" not in err


@pytest.mark.parametrize("phis", [
    ["1,0,0,0=0.1", "1,0,0,0=0.2"],
    ['{"1,0,0,0": 0.1, "1, 0,0,0": 0.2}'],
    ['{"1,0,0,0": 0.1, "1,0,0,0": 0.2}'],
    ['{"1,0,0,0": 0.1}', "1,0,0,0=0.1"]])
def test_conformal_phi_repeated_monomial_exits_2(phis, capsys):
    """A monomial given twice, in either form or across both, is a
    configuration error: the run would silently keep the last value."""
    args = [f"--conformal-phi={phi}" for phi in phis]
    assert cli.main(["verify", "--manifolds", "conformally-flat",
                     "--points", "1", *args]) == 2
    assert "monomial (1, 0, 0, 0) is given more than once" in \
        capsys.readouterr().err


def test_conformal_phi_json_must_parse(capsys):
    assert cli.main(["verify", "--manifolds", "conformally-flat",
                     "--points", "1", '--conformal-phi={"1,0,0,0": }']) == 2
    assert "--conformal-phi" in capsys.readouterr().err


def test_console_entry_point_runs():
    proc = run_cli(["list", "identities"])
    assert proc.returncode == 0
    assert "bochner2.teo-sbf" in proc.stdout


def test_threads_flag_is_gone(capsys):
    """Points run serially; --threads is no longer an option."""
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--threads", "2", "--points", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_reports_ignore_the_threads_field():
    """RunConfig.threads is accepted and ignored."""
    texts = set()
    for threads in (None, 1, 4):
        cfg = suite.RunConfig(
            manifolds=("schwarzschild", "flat-r4"),
            identities=("bianchi1.weyl", "key2.full", "commute2.riemann"),
            points_per_manifold=3, seed=5, deterministic=True,
            threads=threads)
        texts.add(suite.render_json(suite.run_suite(cfg)))
    assert len(texts) == 1


@pytest.mark.parametrize("flag,value,message", [
    ("--manifolds", ",", "no manifold selected"),
    ("--identities", "", "no identity selected"),
    ("--manifolds", "flat-r4,flat-r4", "'flat-r4' is listed more than once"),
    ("--identities", "bianchi1.weyl,key2.full,bianchi1.weyl",
     "'bianchi1.weyl' is listed more than once")])
def test_empty_or_repeated_selection_exits_2(flag, value, message, capsys):
    """An empty selection would check nothing and report ok; a repeated
    name would report every row twice."""
    assert cli.main(["verify", flag, value, "--points", "1"]) == 2
    assert message in capsys.readouterr().err
