"""Tests for the command-line interface."""

import json
import math
import pathlib
import shlex

import pytest

from fltrans.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- pairs ---------------------------------------------------------------------

def test_pairs_lists_nine_rows(capsys):
    code, out, _ = run(capsys, "pairs")
    assert code == 0
    body = [line for line in out.splitlines()[1:] if line.strip()]
    assert len(body) == 9


def test_pairs_single_row(capsys):
    code, out, _ = run(capsys, "pairs", "--id", "2.1")
    assert code == 0
    assert out.count("2.1") >= 1
    assert "1.4" not in out


def test_pairs_unknown_id(capsys):
    code, _, err = run(capsys, "pairs", "--id", "9.9")
    assert code != 0
    assert "unknown pair id" in err


# --- verify ---------------------------------------------------------------------

def test_verify_single_pair_passes(capsys):
    code, out, _ = run(capsys, "verify", "--pair", "2.1", "--dim", "2",
                       "--f", "exp_decay:1", "--tol", "1e-6")
    assert code == 0
    assert "# summary" in out
    assert "passed=1" in out


def test_verify_constraint_violation(capsys):
    code, _, err = run(capsys, "verify", "--pair", "1.3", "--dim", "2",
                       "--f", "exp_decay:1")
    assert code != 0
    assert "no admissible" in err


@pytest.mark.parametrize("original", ["exp_decay:-1", "exp_decay:0", "sine:0"])
def test_verify_growing_original_on_type2_row_is_refused(capsys, original):
    # a type-2 row admits only decaying originals: nothing would be compared
    code, out, err = run(capsys, "verify", "--pair", "2.1", "--dim", "2",
                         "--f", original)
    assert code == 2
    assert "no admissible" in err and original in err
    assert out == ""


def test_verify_two_parameter_catalog_ids(capsys):
    # a comma followed by a digit separates parameters, not ids
    code, out, err = run(capsys, "verify", "--pair", "2.1", "--dim", "2",
                         "--f", "poly_exp:2,1,exp_decay:1")
    assert code == 0, err
    assert "poly_exp:2,1" in out
    assert "exp_decay:1" in out


def test_verify_negative_sine_frequency(capsys):
    # the poles of a/(s^2 + a^2) sit at +-i|a|; a contour raised by a
    # negative height missed them
    code, out, err = run(capsys, "verify", "--pair", "1.5", "--dim", "2",
                         "--f", "sine:-1")
    assert code == 0, err
    assert "passed=1" in out


@pytest.mark.parametrize("original", ["exp_decay:x", "poly_exp:-1,1",
                                      "poly_exp:1.5,1", "sine:1,2", "unit:1",
                                      "exp_decay:nan"])
def test_verify_bad_catalog_parameters_are_config_errors(capsys, original):
    code, _, err = run(capsys, "verify", "--pair", "2.1", "--dim", "2",
                       "--f", original)
    assert code == 2
    assert "bad parameters" in err


@pytest.mark.parametrize("original",
                         ["exp_decay:50", "poly_exp:400,1", "exp_decay:-800"])
def test_verify_catalog_original_whose_image_check_fails(capsys, original):
    # a well-formed id whose closed-form image cannot be confirmed by the
    # numeric transform is a configuration error, not a crash; the last two
    # overflow inside the original itself
    code, out, err = run(capsys, "verify", "--pair", "1.2", "--dim", "2",
                         "--f", original)
    assert code == 2
    assert "catalog original" in err and original in err
    assert out == ""


def test_verify_json_report(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    code, _, _ = run(capsys, "verify", "--pair", "1.4", "--dim", "2",
                     "--f", "exp_decay:1",
                     "--format", "json-report", "--out", str(out_path))
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert isinstance(payload, list) and payload
    assert payload[0]["schema"] == 1
    assert payload[0]["passed"] is True
    assert payload[0]["pair_id"] == "1.4"


def test_verify_unachievable_tolerance_fails(capsys):
    code, out, _ = run(capsys, "verify", "--pair", "1.4", "--dim", "2",
                       "--f", "exp_decay:1", "--tol", "1e-15")
    assert code == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1"])
def test_verify_tolerance_not_finite_and_positive_is_a_config_error(capsys, tol):
    code, out, err = run(capsys, "verify", "--pair", "2.1", "--dim", "2",
                         "--f", "exp_decay:1", "--tol", tol)
    assert code == 2
    assert "--tol must be finite and positive" in err
    assert out == ""


def test_verify_too_few_nodes_is_a_config_error(capsys):
    code, _, err = run(capsys, "verify", "--pair", "2.1", "--dim", "2",
                       "--f", "exp_decay:1", "--nodes", "2")
    assert code == 2
    assert "at least 4 Talbot nodes are required" in err


# --- refused configurations -------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (("verify", "--dim", "0"), "dimensions must be >= 1"),
    (("rte", "--t", "1,x", "--r", "0.5"), "comma-separated float list"),
    (("rte", "--t", "1"), "rte requires --r (or --energy)"),
    (("transform", "--profile", "gaussian"), "transform requires --grid"),
])
def test_incomplete_or_malformed_requests_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


def test_transform_infinite_tolerance_exits_2(capsys):
    # --tol inf marked single-panel values converged (estimates up to 0.07)
    # and exited 0
    code, out, err = run(capsys, "transform", "--dim", "2", "--profile",
                         "gaussian", "--grid", "0,1,3", "--tol", "inf")
    assert code == 2 and out == ""
    assert "tolerances must be finite and positive" in err


# --- rte -------------------------------------------------------------------------

def test_rte_point_value(capsys):
    code, out, _ = run(capsys, "rte", "--c", "1", "--ell", "1", "--A0", "1",
                       "--t", "1", "--r", "0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,t,smooth,ballistic_weight"
    r, t, smooth, weight = lines[1].split(",")
    assert float(smooth) == pytest.approx(0.16073300792969798, abs=1e-9)
    assert float(weight) == pytest.approx(math.exp(-1) / (2 * math.pi), rel=1e-12)


def test_rte_energy_table(capsys):
    code, out, _ = run(capsys, "rte", "--t", "0.5,1,2,5", "--r", "0.25",
                       "--energy")
    assert code == 0
    assert "t,energy" in out
    energy_lines = out.split("t,energy\n", 1)[1].strip().splitlines()
    for line in energy_lines:
        assert float(line.split(",")[1]) == pytest.approx(1.0, rel=1e-8)


def test_rte_rejects_shell_point(capsys):
    code, _, err = run(capsys, "rte", "--t", "1", "--r", "1")
    assert code != 0
    assert "ballistic shell" in err


@pytest.mark.parametrize("t, r", [("1", "nan"), ("1", "inf"), ("inf", "0.5")])
def test_rte_refuses_non_finite_input(capsys, t, r):
    # r = nan printed nan with exit 0; t = inf was called a shell point
    code, out, err = run(capsys, "rte", "--t", t, "--r", r)
    assert code == 2
    assert out == ""
    assert "must be" in err and "ballistic shell" not in err


@pytest.mark.parametrize("flag", ["--c", "--ell", "--A0"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_rte_refuses_non_finite_transport_parameters(capsys, flag, value):
    # --A0 inf printed inf,inf with exit 0
    code, out, err = run(capsys, "rte", "--t", "1", "--r", "0.5", flag, value)
    assert code == 2
    assert out == ""
    assert "finite and positive" in err


def test_rte_requires_params(capsys):
    code, _, err = run(capsys, "rte", "--r", "1")
    assert code != 0


# --- transform ----------------------------------------------------------------------

def test_transform_forward_gaussian_dc(capsys):
    code, out, _ = run(capsys, "transform", "--direction", "forward",
                       "--dim", "2", "--profile", "gaussian", "--grid", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,value,error_estimate,converged"
    row = lines[1].split(",")
    assert float(row[1]) == pytest.approx(2 * math.pi, rel=1e-9)
    assert row[3] == "True"


def test_transform_inverse_yukawa_image(capsys):
    code, out, _ = run(capsys, "transform", "--direction", "inverse",
                       "--dim", "3", "--profile", "yukawa-image",
                       "--grid", "1")
    assert code == 0
    value = float(out.splitlines()[1].split(",")[1])
    assert value == pytest.approx(math.exp(-1.0), rel=1e-7)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_transform_inverse_gaussian_image(capsys, d):
    # (2 pi)^{d/2} e^{-k^2/2} is the d-dimensional image of e^{-r^2/2}
    code, out, _ = run(capsys, "transform", "--direction", "inverse",
                       "--dim", str(d), "--profile", "gaussian-image",
                       "--grid", "0,0.5,1,3")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(row[0]) for row in rows] == [0.0, 0.5, 1.0, 3.0]
    for x, value, _, converged in rows:
        assert converged == "True"
        assert float(value) == pytest.approx(math.exp(-0.5 * float(x) ** 2),
                                             rel=1e-12, abs=0.0)


def test_transform_rejects_bad_dimension(capsys):
    code, _, err = run(capsys, "transform", "--dim", "0",
                       "--profile", "gaussian", "--grid", "1")
    assert code != 0


def test_transform_unknown_profile(capsys):
    code, _, err = run(capsys, "transform", "--profile", "lorentzian",
                       "--grid", "1")
    assert code != 0
    assert "unknown profile" in err


def test_transform_yukawa_d1_rejected(capsys):
    code, _, err = run(capsys, "transform", "--dim", "1",
                       "--profile", "yukawa", "--grid", "1")
    assert code != 0
    assert "not defined for d = 1" in err


@pytest.mark.parametrize("grid", ["inf", "nan"])
@pytest.mark.parametrize("direction, profile", [("forward", "exponential"),
                                                ("inverse", "yukawa-image")])
def test_transform_non_finite_grid_is_a_config_error(capsys, direction,
                                                     profile, grid):
    code, _, err = run(capsys, "transform", "--direction", direction,
                       "--dim", "3", "--profile", profile, "--grid", grid)
    assert code == 2
    assert "finite" in err


def test_csv_is_deterministic(capsys):
    _, out1, _ = run(capsys, "rte", "--t", "1,2", "--r", "0.25,0.5")
    _, out2, _ = run(capsys, "rte", "--t", "1,2", "--r", "0.25,0.5")
    assert out1 == out2


# --- README ---------------------------------------------------------------------

def _readme_commands():
    block = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("fltrans ")]


def test_readme_command_line_examples(capsys, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) >= 7
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)
