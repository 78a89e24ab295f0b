"""Tests for the mixed-domain verification harness."""

import dataclasses
import math

import pytest

from fltrans import pairs, verify
from fltrans.laplace import LaplaceImage, TimeOriginal
from fltrans.numerics import DomainError, QuadratureSpec, integrate_adaptive
from fltrans.pairs import catalog_lookup, lookup, registry_rows
from fltrans.radial_fourier import kernel_ghat
from fltrans.verify import (
    build_sample_grid,
    fl_inversion,
    reports_to_text,
    spacetime_transform,
    verify_all,
    verify_base_pair,
    verify_pair_mixed,
)

SPEC = QuadratureSpec()
EXP1 = catalog_lookup("exp_decay:1")
POLY11 = catalog_lookup("poly_exp:1,1")


# --- base pair -----------------------------------------------------------------

def test_base_pair_spec_points():
    rep = verify_base_pair(1.0, 0.5, (1.0,))
    assert rep.passed
    assert rep.rhs_values[0] == pytest.approx(
        math.exp(-0.5 * math.sqrt(2.0)) / math.sqrt(2.0), rel=1e-12)

    rep = verify_base_pair(0.0, 1.0, (1.0,))
    assert rep.passed
    assert rep.rhs_values[0] == pytest.approx(math.exp(-1.0), rel=1e-12)
    assert rep.lhs_values[0] == pytest.approx(math.exp(-1.0), rel=1e-9)

    rep = verify_base_pair(1.0, 0.0, (1.0,))
    assert rep.passed
    assert rep.rhs_values[0] == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-12)


def test_base_pair_full_grid():
    for k in (0.0, 0.5, 1.0, 2.0):
        for u in (0.0, 0.5, 1.0, 2.0):
            rep = verify_base_pair(k, u, (0.5, 1.0, 2.0, 4.0))
            assert rep.passed, (k, u, rep.rel_errors)


# --- single-point mixed checks ---------------------------------------------------

def test_mixed_21_d2_matches_u_integral_oracle():
    # both sides equal int_0^t J0(k sqrt(t^2 - u^2)) e^{-u} du at d = 2
    k, t = 1.0, 1.0
    oracle = integrate_adaptive(
        lambda u: kernel_ghat(2, k, math.sqrt(t * t - u * u)) * math.exp(-u),
        0.0, t, SPEC)
    assert oracle.converged
    lhs = spacetime_transform(lookup("2.1"), 2, EXP1, k, t, SPEC)
    rhs = fl_inversion(lookup("2.1"), 2, EXP1, k, t, 48)
    assert lhs == pytest.approx(oracle.value, rel=1e-9)
    assert rhs == pytest.approx(oracle.value, rel=1e-9)


def test_mixed_22_k0_reduces_to_total_mass():
    # at k = 0 the image side is s^{-1} fhat(0) = 1/s for d = 2, whose
    # original is the constant fhat(0) = 1
    lhs = spacetime_transform(lookup("2.2"), 2, EXP1, 0.0, 1.0, SPEC)
    rhs = fl_inversion(lookup("2.2"), 2, EXP1, 0.0, 1.0, 48)
    assert lhs == pytest.approx(1.0, rel=1e-9)
    assert rhs == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("pid,d", [
    ("1.1", 2), ("1.1", 3),
    ("1.2", 1), ("1.2", 3),
    ("1.3", 3),
    ("1.4", 2),
    ("1.5", 2), ("1.5", 3),
    ("2.1", 2), ("2.1", 3),
    ("2.2", 3),
    ("2.3", 2),
    ("2.4", 1), ("2.4", 2), ("2.4", 3),
])
def test_mixed_spot_checks(pid, d):
    rep = verify_pair_mixed(pid, d, EXP1, [(0.5, 1.0), (2.0, 2.0)], SPEC, 48)
    assert rep.passed, (pid, d, rep.rel_errors, rep.failures)
    assert rep.max_rel_error <= 1e-6


def test_mixed_poly_exp_spot_check():
    rep = verify_pair_mixed("2.1", 2, POLY11, [(1.0, 2.0)], SPEC, 48)
    assert rep.passed


def test_mixed_rejects_wrong_dimension():
    from fltrans.numerics import DomainError
    with pytest.raises(DomainError):
        verify_pair_mixed("1.3", 2, EXP1, [(1.0, 1.0)], SPEC, 48)


def test_unachievable_tolerance_fails_honestly():
    rep = verify_pair_mixed("2.1", 2, EXP1, [(1.0, 1.0)], SPEC, 48,
                            tolerance=1e-15)
    assert not rep.passed


def test_report_determinism():
    a = verify_pair_mixed("1.2", 2, EXP1, [(0.5, 1.0)], SPEC, 48)
    b = verify_pair_mixed("1.2", 2, EXP1, [(0.5, 1.0)], SPEC, 48)
    assert a.lhs_values == b.lhs_values
    assert a.rhs_values == b.rhs_values
    assert a.rel_errors == b.rel_errors


def test_paired_convergence_run():
    # doubling quadrature accuracy and node count must not increase the
    # error of a passing report
    coarse_spec = QuadratureSpec(abs_tol=1e-9, rel_tol=1e-7)
    fine_spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)
    pts = [(0.5, 1.0), (1.0, 2.0)]
    coarse = verify_pair_mixed("2.1", 2, EXP1, pts, coarse_spec, 24)
    fine = verify_pair_mixed("2.1", 2, EXP1, pts, fine_spec, 48)
    assert coarse.passed and fine.passed
    assert fine.max_rel_error <= coarse.max_rel_error * 1.05


# --- grid building and verify_all -------------------------------------------------

def test_build_sample_grid_filters_tiny_values():
    # row 2.2 at k=2, t=5 has identity value ~ e^{-20}: filtered, topped up
    points, skipped = build_sample_grid(lookup("2.2"), 2, EXP1)
    assert (2.0, 5.0) not in points
    assert len(points) >= 20
    assert any("magnitude floor" in reason for _, reason in skipped)


def test_verify_all_empty_dimension_list():
    assert verify_all([], 1e-6) == []


def test_verify_all_small_slice():
    reports = verify_all([2], 1e-6, originals=[EXP1], pair_ids=["1.4"])
    assert len(reports) == 1
    assert reports[0].passed
    text = reports_to_text(reports)
    assert "pair_id d f_id k t lhs rhs abs_err rel_err" in text
    assert "# summary" in text


def test_verify_all_skips_growing_originals_for_type2():
    unit = catalog_lookup("unit")
    reports = verify_all([2], 1e-6, originals=[unit], pair_ids=["2.3"])
    assert len(reports) == 1
    assert reports[0].sample_points == ()
    assert reports[0].skipped
    assert reports[0].passed  # a recorded skip is not a failure


def test_reports_to_text_contains_failures():
    rep = verify_pair_mixed("2.1", 2, EXP1, [(1.0, 1.0)], SPEC, 48,
                            tolerance=1e-15)
    text = reports_to_text([rep])
    assert "max_rel_error" in text


def test_rows_are_integrated_from_their_data_alone():
    # renaming a row must not change how its space-time side is integrated
    for row in registry_rows():
        d = 2 if row.dim_constraint(2) else 3
        for k, t in ((0.0, 1.0), (1.5, 2.0)):
            want = spacetime_transform(row, d, EXP1, k, t, SPEC)
            got = spacetime_transform(dataclasses.replace(row, id="x"), d,
                                      EXP1, k, t, SPEC)
            assert got == want, (row.id, k, t)
        for f in (EXP1, catalog_lookup("unit")):
            assert verify._original_admissible(
                dataclasses.replace(row, id="x"), f) == \
                verify._original_admissible(row, f), (row.id, f.id)


def _decaying(image, scale=1.0):
    # scale * e^{-u} with the given image; the closed-form check samples real s
    return pairs.TestOriginal(
        "variant", TimeOriginal(lambda u: scale * math.exp(-u), sigma0=-1.0),
        LaplaceImage(image, sigma0=-1.0), "scaled e^{-u}")


def test_verify_all_inverts_each_point_once(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[3:5])
        return fl_inversion(*args)

    monkeypatch.setattr(verify, "fl_inversion", counted)
    (rep,) = verify_all([2], originals=[EXP1], pair_ids=["2.2"])
    assert rep.passed and rep.skipped  # 2.2 at k=2, t=5 is below the floor
    assert len(calls) == len(rep.sample_points) + len(rep.skipped)
    assert len(set(calls)) == len(calls)


def test_too_few_nodes_raises():
    with pytest.raises(DomainError, match="at least 4 Talbot nodes"):
        verify_all([2], pair_ids=["2.1"], nodes=2)


def test_hard_points_fail_instead_of_being_skipped():
    # finite on the real axis, so the closed-form check passes; NaN on
    # every off-axis contour node, so every inversion raises
    f = _decaying(lambda s: 1.0 / (s + 1.0) if s.imag == 0.0 else math.nan)
    (rep,) = verify_all([2], originals=[f], pair_ids=["1.2"])
    assert not rep.passed
    assert rep.sample_points == () and rep.skipped == ()
    assert len(rep.failures) == 20
    assert all("not finite" in reason for _, reason in rep.failures)


def test_report_with_every_point_below_the_floor_fails():
    tiny = _decaying(lambda s: 1e-12 / (s + 1.0), scale=1e-12)
    (rep,) = verify_all([2], originals=[tiny], pair_ids=["1.2"])
    assert rep.sample_points == () and not rep.failures
    assert len(rep.skipped) == 29
    assert not rep.passed
