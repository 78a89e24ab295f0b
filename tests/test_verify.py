"""Tests for the mixed-domain verification harness."""

import cmath
import dataclasses
import math
import time

import pytest

from fltrans import pairs, verify
from fltrans.laplace import TimeOriginal
from fltrans.numerics import DomainError, QuadratureSpec, integrate_adaptive
from fltrans.pairs import catalog_lookup, lookup, registry_rows
from fltrans.radial_fourier import QuadratureError, kernel_ghat
from fltrans.verify import (
    fl_inversion,
    reports_to_text,
    spacetime_transform,
    verify_all,
    verify_pair_mixed,
)

SPEC = QuadratureSpec()
EXP1 = catalog_lookup("exp_decay:1")
POLY11 = catalog_lookup("poly_exp:1,1")
# the bindings through which a verify run reaches a numeric hop, and the
# forward Laplace quadrature of an original's image check
_HOPS = ((verify, "inverse_laplace"), (verify, "radial_quadrature"),
         (pairs, "forward_laplace"))


def _count_hops(monkeypatch) -> list:
    """Record the name of each hop of _HOPS that runs, in call order."""
    calls = []

    def counted(name, original):
        def hop(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return hop

    for module, name in _HOPS:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


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
    # 1e-17 is below the relative spacing of doubles (2.2e-16), so only
    # bit-identical sides could meet it
    rep = verify_pair_mixed("2.1", 2, EXP1, [(1.0, 1.0)], SPEC, 48,
                            tolerance=1e-17)
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
    (rep,) = verify_all([2], originals=[EXP1], pair_ids=["2.2"])
    assert (2.0, 5.0) not in rep.sample_points
    assert len(rep.sample_points) == 20
    (skipped,) = rep.skipped
    assert skipped[0] == (2.0, 5.0) and "magnitude floor" in skipped[1]


def test_pair_mixed_compares_a_point_below_the_floor():
    # verify_pair_mixed has no magnitude floor: row 2.2's (2, 5) is compared
    rep = verify_pair_mixed("2.2", 2, EXP1, [(2.0, 5.0)], SPEC)
    assert rep.sample_points == ((2.0, 5.0),) and rep.skipped == ()
    assert rep.lhs_values[0] == pytest.approx(2.0612e-9, rel=1e-4)
    assert rep.rhs_values[0] == pytest.approx(2.0605e-9, rel=1e-4)


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
    # a growing original against a type-2 row is not an admissible triple
    # (like an inadmissible d), so nothing is compared and nothing reported
    unit = catalog_lookup("unit")
    assert verify_all([2], 1e-6, originals=[unit], pair_ids=["2.3"]) == []


def test_verify_all_wall_time_includes_the_sample_grid(monkeypatch):
    # the clock used to start after the inversions of the report
    def slow_inversion(*args):
        time.sleep(0.0025)
        return fl_inversion(*args)

    monkeypatch.setattr(verify, "fl_inversion", slow_inversion)
    (report,) = verify_all([2], originals=[EXP1], pair_ids=["1.2"])
    assert report.wall_time >= 20 * 0.0025


def test_reports_to_text_contains_failures():
    rep = verify_pair_mixed("2.1", 2, EXP1, [(1.0, 1.0)], SPEC, 48,
                            tolerance=1e-15)
    text = reports_to_text([rep])
    assert "max_rel_error" in text


def test_reports_to_text_names_skipped_and_failed_points(monkeypatch):
    # row 2.2 at d = 2 drops (2, 5) below the magnitude floor; a point
    # whose space-time hop raises is kept as a failure of its report
    (skipping,) = verify_all([2], originals=[EXP1], pair_ids=["2.2"])
    original = verify.spacetime_transform

    def faulty(pair, d, f, k, t, spec):
        if (k, t) == (1.0, 2.0):
            raise QuadratureError("injected")
        return original(pair, d, f, k, t, spec)

    monkeypatch.setattr(verify, "spacetime_transform", faulty)
    (failing,) = verify_all([2], originals=[EXP1], pair_ids=["1.2"])
    lines = reports_to_text([skipping, failing]).splitlines()
    (skipped,) = [line for line in lines if line.startswith("# skipped")]
    assert skipped.startswith(
        "# skipped 2.2 d=2 f=exp_decay:1 point=(2.0, 5.0): identity value ")
    assert skipped.endswith(" below magnitude floor 1e-07")
    assert [line for line in lines if line.startswith("# FAILED")] == [
        "# FAILED 1.2 d=2 f=exp_decay:1 point=(1.0, 2.0): injected"]
    assert lines[-1].startswith("# reports=2 passed=1 failed=1 ")


def test_reports_to_text_prints_every_coordinate_of_a_point():
    # each data line prints the point's (k, t) under the header's "k t"
    samples = [(0.5, 1.0), (1.0, 2.5), (2.0, 3.0)]
    rep = verify_pair_mixed("1.2", 2, EXP1, samples, SPEC)
    header, *lines = reports_to_text([rep]).splitlines()[:4]
    assert header.split()[3:5] == ["k", "t"]
    assert [line.split()[:5] for line in lines] == [
        ["1.2", "2", "exp_decay:1", repr(k), repr(t)] for k, t in samples]
    assert all(len(line.split()) == len(header.split()) for line in lines)


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
            assert dataclasses.replace(row, id="x").admits(d, f) == \
                row.admits(d, f), (row.id, f.id)


def test_admitted_triples_are_pinned(monkeypatch):
    # 1.1 from d = 2, 1.3 from d = 3, every other row from d = 1; type-2
    # rows only with the decaying originals (not sine:1 or unit)
    monkeypatch.setattr(verify, "build_sample_grid", lambda: [])
    decaying = ("exp_decay:0.5", "exp_decay:1", "exp_decay:2",
                "poly_exp:1,1", "poly_exp:2,1")
    every = decaying + ("sine:1", "unit")
    table = {"1.1": (2, every), "1.2": (1, every), "1.3": (3, every),
             "1.4": (1, every), "1.5": (1, every), "2.1": (1, decaying),
             "2.2": (1, decaying), "2.3": (1, decaying),
             "2.4": (1, decaying)}
    want = [(pid, d, fid) for pid, (least, fids) in table.items()
            for d in range(least, 7) for fid in fids]
    got = [(rep.pair_id, rep.dimension, rep.test_original)
           for rep in verify_all(range(1, 7))]
    assert got == want
    assert sum(1 for _, d, _ in got if d <= 3) == 144
    assert verify.D1_VERIFIABLE == ("1.2", "1.4", "1.5", "2.1", "2.2",
                                    "2.3", "2.4")


@pytest.mark.parametrize("d", [0, 2.5, math.nan, math.inf])
def test_non_integral_or_nonpositive_dimension_verifies_nothing(d):
    row = lookup("1.2")
    with pytest.raises(pairs.ConstraintError):
        fl_inversion(row, d, EXP1, 1.0, 1.0, 48)
    with pytest.raises(pairs.ConstraintError):
        spacetime_transform(row, d, EXP1, 1.0, 1.0, SPEC)
    with pytest.raises(pairs.ConstraintError):
        verify_pair_mixed("1.2", d, EXP1, [(1.0, 1.0)], SPEC)
    assert verify_all([d]) == []


@pytest.mark.parametrize("pid,d", [("1.3", 2), ("1.3", 1), ("1.1", 1)])
def test_both_hops_refuse_a_dimension_below_the_rows(pid, d):
    # row 1.3's prefactor d/2 - 1 vanishes at d = 2, so an unchecked
    # space-time hop returned 0.0 there
    row = lookup(pid)
    with pytest.raises(pairs.ConstraintError, match=r"requires an integer d"):
        spacetime_transform(row, d, EXP1, 1.0, 2.0, SPEC)
    with pytest.raises(pairs.ConstraintError, match=r"requires an integer d"):
        fl_inversion(row, d, EXP1, 1.0, 2.0, 48)
    with pytest.raises(pairs.ConstraintError, match=r"requires an integer d"):
        verify_pair_mixed(pid, d, EXP1, [(1.0, 2.0)], SPEC)
    assert verify_all([d], pair_ids=[pid]) == []


@pytest.mark.parametrize("t", [-1.0, 0.0, math.inf, math.nan])
def test_spacetime_transform_refuses_a_time_not_finite_and_positive(t):
    with pytest.raises(DomainError, match="time must be finite and positive"):
        spacetime_transform(lookup("1.2"), 2, EXP1, 1.0, t, SPEC)


@pytest.mark.parametrize("k", [-1.0, math.nan, math.inf])
def test_fl_inversion_refuses_a_wavenumber_not_finite_and_nonnegative(k):
    # k = -1 used to invert to 0.5687; nan and inf raised LaplaceError
    with pytest.raises(DomainError, match="wavenumber must be finite"):
        fl_inversion(lookup("1.2"), 2, EXP1, k, 1.0, 48)


def _decaying(image, scale=1.0):
    # scale * e^{-u} with the given image; the closed-form check samples real s
    return pairs.TestOriginal(
        "variant", TimeOriginal(lambda u: scale * math.exp(-u), sigma0=-1.0),
        image)


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


def test_a_contour_exponential_out_of_range_is_reported_by_name():
    # at (k, t) = (40, 20) the radius 46 makes e^{r t} overflow; the report
    # used to record only "math range error"
    rep = verify_pair_mixed("1.2", 2, EXP1, [(40.0, 20.0)], SPEC)
    assert not rep.passed
    [(point, message)] = rep.failures
    assert point == (40.0, 20.0)
    assert message.startswith("contour radius overflows")
    assert "at r = 46.0, t = 20.0" in message


def test_verify_pair_mixed_refuses_too_few_nodes_before_any_hop(monkeypatch):
    def no_hop(*args, **kwargs):
        raise AssertionError("a hop ran")

    monkeypatch.setattr(verify, "spacetime_transform", no_hop)
    for module, name in _HOPS:
        monkeypatch.setattr(module, name, no_hop)
    with pytest.raises(DomainError, match="at least 4 Talbot nodes"):
        verify_pair_mixed("2.1", 2, EXP1, [(1.0, 1.0), (0.5, 2.0)], SPEC,
                          nodes=2)


def test_verify_all_refuses_too_few_nodes_before_any_hop(monkeypatch):
    calls = _count_hops(monkeypatch)
    with pytest.raises(DomainError, match="at least 4 Talbot nodes"):
        verify_all([2], nodes=3)
    assert calls == []


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0])
def test_a_bad_tolerance_is_refused_before_any_hop(monkeypatch, tolerance):
    # at a NaN tolerance verify_all ran 14 forward and 20 inverse Laplace
    # hops, and verify_pair_mixed 2 forward ones, before refusing it
    calls = _count_hops(monkeypatch)
    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        verify_all([2], tolerance=tolerance, pair_ids=["2.1"])
    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        verify_pair_mixed("2.1", 2, EXP1, [(1.0, 1.0)], SPEC,
                          tolerance=tolerance)
    assert calls == []


@pytest.mark.parametrize("tolerance", [math.inf, math.nan, 0.0, -1.0])
def test_compare_refuses_a_tolerance_not_finite_and_positive(tolerance):
    def no_point(point):
        raise AssertionError("a point was compared")

    with pytest.raises(DomainError, match="tolerance must be finite and positive"):
        verify._compare("2.1", 2, "exp_decay:1", [(1.0, 1.0)], no_point,
                        tolerance, {})


def test_hard_points_fail_instead_of_being_skipped():
    # finite on the real axis, so the closed-form check passes; NaN on
    # every off-axis contour node, so every inversion raises
    f = _decaying(lambda s: 1.0 / (s + 1.0) if s.imag == 0.0 else math.nan)
    (rep,) = verify_all([2], originals=[f], pair_ids=["1.2"])
    assert not rep.passed
    assert rep.sample_points == () and rep.skipped == ()
    assert len(rep.failures) == 20
    assert all("not finite" in reason for _, reason in rep.failures)


def test_a_wrong_closed_form_image_is_refused_before_any_point():
    # the TestOriginal invariant: fhat must match the numeric Laplace
    # transform, so an original with a wrong image is never built
    with pytest.raises(DomainError, match="closed-form image disagrees"):
        _decaying(lambda s: 2.0 / (s + 1.0))


def test_verify_runs_no_forward_laplace_transform(monkeypatch):
    # the image check belongs to the original, not to each verify run
    calls = _count_hops(monkeypatch)
    (rep,) = verify_all([2], pair_ids=["1.2"], originals=[EXP1])
    assert rep.passed and "forward_laplace" not in calls
    assert {"inverse_laplace", "radial_quadrature"} <= set(calls)


@pytest.mark.xfail(reason="FOUND in CHANGES.md: inverse_laplace at 48 nodes "
                   "loses about 5e-6 on the 31-fold pole of poly_exp:30,1")
def test_an_original_with_a_31_fold_pole_verifies():
    # worst relative error 6.24e-6, at (k, t) = (0, 1)
    (rep,) = verify_all([2], pair_ids=["1.2"],
                        originals=[catalog_lookup("poly_exp:30,1")])
    assert rep.passed, rep.max_rel_error


@pytest.mark.xfail(reason="FOUND in CHANGES.md: 48 nodes are too coarse for "
                   "row 1.1's image in high dimensions")
def test_row_11_verifies_in_dimension_20():
    # misses by 1.85e-6; at 96 nodes the worst error is 1.5e-15
    (rep,) = verify_all([20], pair_ids=["1.1"], originals=[EXP1])
    assert rep.passed, rep.max_rel_error


def test_an_unconverged_space_time_hop_raises():
    starved = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300,
                             max_subdivisions=1)
    with pytest.raises(QuadratureError,
                       match=r"pair 1\.2 \(d=2, f=exp_decay:1\) did not "
                             r"converge at \(k, t\) = \(0\.5, 1\.0\)"):
        spacetime_transform(lookup("1.2"), 2, EXP1, 0.5, 1.0, starved)


def test_report_with_every_point_below_the_floor_fails():
    tiny = _decaying(lambda s: 1e-12 / (s + 1.0), scale=1e-12)
    (rep,) = verify_all([2], originals=[tiny], pair_ids=["1.2"])
    assert rep.sample_points == () and not rep.failures
    assert len(rep.skipped) == 29
    assert not rep.passed


@pytest.mark.parametrize("hop, error", [("spacetime_transform", ZeroDivisionError),
                                        ("fl_inversion", OverflowError),
                                        ("fl_inversion", DomainError)])
def test_arithmetic_error_in_one_hop_fails_only_that_point(monkeypatch, hop, error):
    original = getattr(verify, hop)

    def faulty(pair, d, f, k, t, *rest):
        if (k, t) == (1.0, 2.0):
            raise error("injected")
        return original(pair, d, f, k, t, *rest)

    monkeypatch.setattr(verify, hop, faulty)
    (rep,) = verify_all([2], originals=[EXP1], pair_ids=["1.2"])
    assert rep.failures == (((1.0, 2.0), "injected"),)
    assert len(rep.sample_points) == 19 and not rep.passed


def test_branch_point_original_on_the_light_cone_rows():
    # u^(1/2) e^(-u) has the branch-point image Gamma(3/2)/(s + 1)^(3/2).
    # Row 2.1 used to fail in d = 1, 2, 3 with "float division by zero":
    # the node r = t sin(theta) rounded to t and the row divided by
    # sqrt(t^2 - r^2) = 0, where now the quadrature owns that weight
    gamma = math.gamma(1.5)
    half = pairs.TestOriginal(
        "u^0.5*exp(-u)",
        TimeOriginal(lambda u: math.sqrt(u) * math.exp(-u), sigma0=-1.0,
                     eval_complex=lambda z: cmath.sqrt(z) * cmath.exp(-z)),
        lambda s: gamma / (s + 1.0) ** 1.5)
    reports = verify_all([1, 2, 3], originals=[half], pair_ids=["2.1", "2.4"])
    assert len(reports) == 6
    for rep in reports:
        assert rep.passed, (rep.pair_id, rep.dimension, rep.failures,
                            rep.max_rel_error)
