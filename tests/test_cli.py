"""Command-line interface: subcommands, exit codes, output schemas."""

import json
import subprocess
import sys

import pytest

from osculant.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_check_convex_passes_on_model(capsys):
    code, doc = _run(capsys, "check-convex", "--curve", "trig_convex:3",
                     "--trials", "120", "--seed", "0")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["sampling"]["max_roots_seen"] <= 3


def test_check_convex_fails_on_wobbly_circle(tmp_path, capsys):
    a = 0.15
    spec = {"model": "fourier", "n": 2, "coeffs": [
        [1.0],
        [0.0, 1.0, 0.0, a, 0.0, 0.0, 0.0, a, 0.0],
        [0.0, 0.0, 1.0, 0.0, -a, 0.0, 0.0, 0.0, a],
    ]}
    path = tmp_path / "wobble.json"
    path.write_text(json.dumps(spec))
    code, doc = _run(capsys, "check-convex", "--curve", str(path),
                     "--trials", "300", "--seed", "1")
    assert code == 1
    assert doc["verdict"] == "fail"


def test_check_convex_rejects_a_cusp(tmp_path, capsys):
    # the astroid's cusps sit on the pair-scan grid: a geometric degeneracy
    spec = {"model": "fourier", "n": 2, "coeffs": [
        [1], [0, .75, 0, 0, 0, .25, 0], [0, 0, .75, 0, 0, 0, -.25]]}
    path = tmp_path / "astroid.json"
    path.write_text(json.dumps(spec))
    code = main(["check-convex", "--curve", str(path), "--trials", "50"])
    assert code == 1
    assert "rejected" in capsys.readouterr().err


def test_roots_reports_tangencies(capsys):
    code, doc = _run(capsys, "roots", "--curve", "trig_convex:2",
                     "(1, 3, 0)")
    assert code == 0
    assert doc["total"] == 2
    taus = sorted(t for t, _ in doc["tangencies"])
    assert taus == pytest.approx([1.2309594173407783, 5.052225889838812],
                                 abs=1e-9)


def test_roots_rejects_malformed_point(capsys):
    code, _ = _run(capsys, "roots", "--curve", "trig_convex:2", "(1, 3)")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("roots", "--curve", "trig_convex:2", "(nan, 1, 0)"),
    ("roots", "--curve", "trig_convex:2", "(inf, 1, 0)"),
    ("transport", "--curve", "trig_convex:2", "(1, inf, 0)",
     "rational_normal:2"),
])
def test_non_finite_point_is_usage_error(capsys, argv):
    assert main(list(argv)) == 3
    err = capsys.readouterr().err
    assert "non-finite coordinate" in err
    assert "vanished identically" not in err



@pytest.mark.parametrize("point, twin", [
    ("(1e308, 1e308, 1)", "(1, 1, 1e-308)"),
    ("(1e308, 2e307, 1e307)", "(10, 2, 1)"),
    ("(1e-310, 2e-311, 1e-311)", "(10, 2, 1)"),
])
def test_transport_of_extreme_points_matches_the_unscaled_twin(capsys, point,
                                                               twin):
    # the squares of these coordinates over- or underflow
    docs = [_run(capsys, "transport", "--curve", "trig_convex:2", p,
                 "rational_normal:2") for p in (point, twin)]
    (code, doc), (_, ref) = docs
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["roundtrip_error"] <= 1e-5
    assert doc["stratum_before"] == doc["stratum_after"] == ref["stratum_before"]

def test_project_recursion(capsys):
    code, doc = _run(capsys, "project", "--curve", "trig_convex:4",
                     "--seed", "3", "1.0", "2.5")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["child_dimension"] == 2
    assert doc["expected_drop"] == 2
    assert all(d == 2 for d in doc["root_drop_checks"])


def test_components_census(capsys):
    code, doc = _run(capsys, "components", "--curve", "trig_convex:3",
                     "--samples", "300", "--seed", "2")
    assert code == 0
    assert doc["components"] == 2
    assert set(doc["histogram"]) == {"3", "1"}    # emitted with sorted keys
    assert all(v > 0 for v in doc["histogram"].values())


def test_hull_probes(capsys):
    code, doc = _run(capsys, "hull", "--curve", "trig_convex:2", "--seed", "4")
    assert code == 0
    assert len(doc["probes"]) == 20
    assert {"point", "member"} <= set(doc["probes"][0])
    assert "center" in doc


def test_mesh_writes_file(tmp_path, capsys):
    out = tmp_path / "m.obj"
    code, doc = _run(capsys, "mesh", "--curve", "rational_normal:3",
                     "--t-steps", "6", "--ruling-steps", "3",
                     "--format", "obj", "--out", str(out))
    assert code == 0
    assert doc["written"] == str(out)
    assert out.exists()


def test_mesh_requires_out(capsys):
    code, _ = _run(capsys, "mesh", "--curve", "rational_normal:3")
    assert code == 3


def test_mesh_obj_needs_three_dimensions(tmp_path, capsys):
    code, _ = _run(capsys, "mesh", "--curve", "trig_convex:4",
                   "--format", "obj", "--out", str(tmp_path / "x.obj"))
    assert code == 1


def test_transport_between_models(capsys):
    code, doc = _run(capsys, "transport", "--curve", "trig_convex:4",
                     "(1, 0.2, -0.4, 0.1, 0.3)", "rational_normal:4")
    assert code == 0
    assert doc["verdict"] == "pass"
    assert doc["stratum_before"] == doc["stratum_after"]
    assert doc["roundtrip_error"] <= 1e-5


def test_unknown_model_is_usage_error(capsys):
    code, _ = _run(capsys, "roots", "--curve", "spiral:3", "(1, 0, 0, 0)")
    assert code == 3


def test_bad_flag_is_usage_error(capsys):
    assert main(["roots", "--nope"]) == 3
    # a flag that another command reads is not accepted here
    assert main(["roots", "--curve", "trig_convex:2", "--seed", "3",
                 "(1, 3, 0)"]) == 3


def test_thresholds_are_not_flags():
    # rank, zero and merge thresholds are module constants
    assert main(["roots", "--tol-rank", "1e-6", "--curve", "trig_convex:2",
                 "(1, 3, 0)"]) == 3


def test_import_leaves_scipy_optimize_unloaded():
    # scipy.optimize is imported where it is first used, not at import time
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, osculant, osculant.cli; "
         "print('scipy.optimize' in sys.modules)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "osculant.cli", "roots",
         "--curve", "trig_convex:2", "(1, 3, 0)"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["total"] == 2
