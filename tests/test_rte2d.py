"""Tests for the 2-D radiative transfer solution."""

import math
import threading

import pytest

from fltrans import rte2d
from fltrans.laplace import LaplaceError, sqrt_s2k2
from fltrans.numerics import DomainError, QuadratureSpec
from fltrans.radial_fourier import QuadratureError
from fltrans.rte2d import (
    IntensityValue,
    PoleError,
    TransportParams,
    check_energy,
    fl_greens_avg,
    fl_intensity,
    intensity,
    verify_rte_mixed,
)

SPEC = QuadratureSpec()
UNIT = TransportParams(1.0, 1.0, 1.0)


def smooth_oracle(p, r, t):
    # direct arithmetic on the closed form
    q = math.sqrt(p.c * p.c * t * t - r * r)
    return (p.A0 / (2 * math.pi) * math.exp(q / p.ell) / (p.ell * q)
            * math.exp(-p.c * t / p.ell))


def test_intensity_inside_cone():
    got = intensity(UNIT, 0.5, 1.0)
    assert got.smooth == pytest.approx(smooth_oracle(UNIT, 0.5, 1.0), rel=1e-14)
    assert got.smooth == pytest.approx(0.16073300792969798, abs=1e-12)


def test_intensity_outside_cone_is_ballistic_only():
    got = intensity(UNIT, 2.0, 1.0)
    assert got.smooth == 0.0
    assert got.ballistic_weight == pytest.approx(
        math.exp(-1.0) / (2 * math.pi), rel=1e-14)


def test_intensity_edge_refused():
    with pytest.raises(DomainError):
        intensity(UNIT, 1.0, 1.0)


def test_causality_pointwise():
    for r, t in ((1.1, 1.0), (3.0, 2.0), (10.0, 0.5)):
        assert intensity(UNIT, r, t).smooth == 0.0


def test_damping_factorization_large_ell():
    # with ell -> inf only the ballistic term survives
    thin = TransportParams(1.0, 1e6, 1.0)
    dense = TransportParams(1.0, 1.0, 1.0)
    r, t = 0.3, 1.0
    assert intensity(thin, r, t).smooth < 1e-5 * intensity(dense, r, t).smooth


def test_fl_greens_avg_values():
    assert fl_greens_avg(UNIT, 0.0, 2.0) == pytest.approx(0.5, rel=1e-14)
    assert fl_greens_avg(UNIT, 1.0, 1.0) == pytest.approx(
        1.0 / math.sqrt(2.0), rel=1e-14)
    fast = TransportParams(2.0, 1.0, 1.0)
    assert fl_greens_avg(fast, 1.0, 1e-4).real == pytest.approx(0.5, rel=1e-3)


def test_fl_intensity_energy_pole_structure():
    # k = 0: ihat = A0/s (total energy conservation in the image domain)
    assert fl_intensity(UNIT, 0.0, 1.0).real == pytest.approx(1.0, rel=1e-12)
    got = fl_intensity(UNIT, 1.0, 1.0)
    g = 1.0 / math.sqrt(5.0)
    assert got.real == pytest.approx(g / (1.0 - g), rel=1e-12)
    doubled = TransportParams(1.0, 1.0, 2.0)
    assert fl_intensity(doubled, 0.0, 1.0).real == pytest.approx(2.0, rel=1e-12)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, -1.0])
def test_fl_greens_avg_refuses_a_wavenumber_not_finite_and_nonnegative(k):
    with pytest.raises(DomainError, match="wavenumber"):
        fl_greens_avg(UNIT, k, 1.0)


def test_fl_greens_avg_pole_at_the_origin():
    with pytest.raises(PoleError, match="propagator singular"):
        fl_greens_avg(TransportParams(), 0.0, 0.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, -1.0])
def test_fl_intensity_refuses_a_wavenumber_not_finite_and_nonnegative(k):
    with pytest.raises(DomainError, match="wavenumber"):
        fl_intensity(UNIT, k, 1.0)


@pytest.mark.parametrize("s", [math.inf, complex(1.0, math.inf), math.nan,
                               complex(1.0, math.nan), -math.inf])
@pytest.mark.parametrize("entry", [fl_greens_avg, fl_intensity])
def test_fl_images_refuse_an_s_that_is_not_finite(entry, s):
    # both returned nan+nanj
    with pytest.raises(DomainError, match="s must be finite"):
        entry(UNIT, 1.0, s)


def test_fl_intensity_pole_error():
    with pytest.raises(PoleError):
        fl_intensity(UNIT, 0.0, 0.0)


def test_pair_machinery_cross_check():
    # fl_intensity equals psi * fhat(phi) of registry row 2.1 at d=2 with
    # the resolvent image fhat(s) = s/(s - c/ell), shifted by c/ell
    p = UNIT
    fhat = lambda z: z / (z - p.c / p.ell)
    for k in (0.0, 0.5, 1.0, 2.0):
        for s in (0.5, 1.0, 2.0, complex(1.0, 1.0)):
            shifted = s + p.c / p.ell
            sq = sqrt_s2k2(shifted, p.c * k)
            want = p.A0 * fhat(sq) / sq
            got = fl_intensity(p, k, s)
            assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_energy_conservation(t):
    assert check_energy(UNIT, t, SPEC) == pytest.approx(1.0, rel=1e-8)


def test_energy_linearity_in_a0():
    p = TransportParams(1.0, 1.0, 3.0)
    assert check_energy(p, 2.0, SPEC) == pytest.approx(3.0, rel=1e-8)


def test_energy_small_time_is_ballistic():
    got = check_energy(UNIT, 1e-6, SPEC)
    assert got == pytest.approx(1.0, rel=1e-8)


def test_verify_rte_mixed_grid():
    samples = [(k, t) for k in (0.0, 0.5, 1.0, 2.0) for t in (0.5, 1.0, 2.0)]
    rep = verify_rte_mixed(UNIT, samples, SPEC, 48)
    assert rep.passed, (rep.rel_errors, rep.failures)
    assert rep.max_rel_error <= 1e-5


def test_verify_rte_mixed_k0_is_energy():
    rep = verify_rte_mixed(UNIT, [(0.0, 1.0)], SPEC, 48)
    assert rep.lhs_values[0] == pytest.approx(1.0, rel=1e-9)
    assert rep.rhs_values[0] == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0, 5.0])
def test_energy_is_the_k0_value_of_the_mixed_lhs(t):
    p = TransportParams(0.7, 3.0, 2.0)
    rep = verify_rte_mixed(p, [(0.0, t)], SPEC, 48)
    assert check_energy(p, t, SPEC) == rep.lhs_values[0]


def test_smooth_part_near_the_shell():
    # the edge distance sqrt((ct - r)(ct + r)) keeps its digits at
    # r = ct(1 - 1e-8), where ct*ct - r*r loses half of them
    mpmath = pytest.importorskip("mpmath")
    for p in (UNIT, TransportParams(0.7, 3.0, 2.0)):
        for t in (0.5, 1.0, 3.0):
            ct = p.c * t
            r = ct * (1.0 - 1e-8)
            got = intensity(p, r, t).smooth
            with mpmath.workdps(30):
                q = mpmath.sqrt(mpmath.mpf(ct) ** 2 - mpmath.mpf(r) ** 2)
                want = (p.A0 / (2 * mpmath.pi) * mpmath.exp(q / p.ell)
                        / (p.ell * q) * mpmath.exp(-mpmath.mpf(ct) / p.ell))
            assert abs(got - want) <= 1e-14 * want, (p, t)


@pytest.mark.parametrize("t", [0.5, 5.0, 800.0])
def test_intensity_matches_mpmath_at_long_times(t):
    # e^(q/ell) e^(-ct/ell) overflowed once ct/ell > 709.8; the smooth part
    # is exp(-r^2/(ell (ct + q)))/q, since ct - q = r^2/(ct + q)
    mpmath = pytest.importorskip("mpmath")
    for r in (0.01, 0.25, 0.9 * t):
        got = intensity(UNIT, r, t).smooth
        with mpmath.workdps(40):
            t_, r_ = mpmath.mpf(t), mpmath.mpf(r)
            q = mpmath.sqrt(t_ * t_ - r_ * r_)
            want = mpmath.exp(q - t_) / (2 * mpmath.pi * q)
        assert abs(got - want) <= 1e-13 * want, r


def test_energy_conservation_at_long_times():
    assert abs(check_energy(UNIT, 800.0, SPEC) - 1.0) <= 1e-9


@pytest.mark.parametrize("t", [1e8, 1e10, 1e15])
def test_energy_conservation_at_very_long_times(t):
    # R peaks within r ~ sqrt(2 ell c t), far inside a light cone whose
    # first panel nodes all missed it: 7.4e-250 at c t/ell = 1e8, 0.0 at 1e10
    assert abs(check_energy(UNIT, t, SPEC) - 1.0) <= 1e-9


@pytest.mark.parametrize("t", [1e200, 1e300])
def test_energy_past_a_representable_light_cone(t):
    # sqrt(c^2 t^2 - r^2) overflows: the energy must be right or refused,
    # never 0.0, and within seconds (t = 1e300 once spun in the quadrature)
    outcome = []

    def energy():
        try:
            outcome.append(check_energy(UNIT, t, SPEC))
        except DomainError:
            outcome.append(None)

    worker = threading.Thread(target=energy, daemon=True)
    worker.start()
    worker.join(timeout=30.0)
    assert outcome, "check_energy did not return within 30 s"
    assert outcome[0] is None or abs(outcome[0] - 1.0) <= 1e-9


def test_pole_error_fails_only_its_point(monkeypatch):
    # a vanishing resolvent denominator is an ArithmeticError, which the
    # verifier records against its point
    original = rte2d.fl_intensity

    def faulty(p, k, s):
        if k == 2.0:
            raise PoleError("injected")
        return original(p, k, s)

    monkeypatch.setattr(rte2d, "fl_intensity", faulty)
    rep = verify_rte_mixed(UNIT, [(0.5, 1.0), (2.0, 1.0)], SPEC, 48)
    assert rep.failures == (((2.0, 1.0), "injected"),)
    assert rep.sample_points == ((0.5, 1.0),) and not rep.passed


def test_mixed_lhs_matches_a_30_digit_reference():
    # In the edge distance q = sqrt(t^2 - r^2) the smooth part has a smooth
    # integrand: LHS(k, t) = e^(-t) [J0(k t) + int_0^t J0(k sqrt(t^2 - q^2))
    # e^q dq].  The point (2, 5) is a cancellation (LHS 0.0050), where a
    # light-cone Jacobian out of step with the rounded r shows.
    mpmath = pytest.importorskip("mpmath")
    samples = [(k, t) for k in (0.0, 0.5, 1.0, 2.0) for t in (0.5, 1.0, 2.0, 5.0)]
    rep = verify_rte_mixed(UNIT, samples, SPEC, 48)
    with mpmath.workdps(30):
        for (k, t), lhs in zip(samples, rep.lhs_values):
            k, t = mpmath.mpf(k), mpmath.mpf(t)
            smooth = mpmath.quad(lambda q: mpmath.besselj(
                0, k * mpmath.sqrt(t * t - q * q)) * mpmath.exp(q), [0, t])
            want = (mpmath.besselj(0, k * t) + smooth) * mpmath.exp(-t)
            assert abs(lhs - want) <= 1.5e-13 * abs(want), (k, t)


def test_inversion_error_fails_only_its_point(monkeypatch):
    original = rte2d.inverse_laplace

    def faulty(image, t, *args, **kwargs):
        if t == 2.0:
            raise LaplaceError("injected")
        return original(image, t, *args, **kwargs)

    monkeypatch.setattr(rte2d, "inverse_laplace", faulty)
    rep = verify_rte_mixed(UNIT, [(0.5, 1.0), (0.5, 2.0)], SPEC, 48)
    assert rep.failures == (((0.5, 2.0), "injected"),)
    assert rep.sample_points == ((0.5, 1.0),) and not rep.passed


def test_verify_rte_mixed_refuses_too_few_nodes_before_any_hop(monkeypatch):
    def no_hop(*args, **kwargs):
        raise AssertionError("a hop ran")

    monkeypatch.setattr(rte2d, "_transform", no_hop)
    with pytest.raises(DomainError, match="at least 4 Talbot nodes"):
        verify_rte_mixed(UNIT, [(0.5, 1.0), (0.5, 2.0)], SPEC, nodes=2)


def test_an_unconverged_smooth_part_raises():
    starved = QuadratureSpec(abs_tol=1e-300, rel_tol=1e-300,
                             max_subdivisions=1)
    with pytest.raises(QuadratureError, match=r"smooth-part transform did "
                       r"not converge at \(k, t\) = \(0\.0, 1\.0\)"):
        check_energy(UNIT, 1.0, starved)


def test_verify_rte_mixed_small_time_initial_condition():
    rep = verify_rte_mixed(UNIT, [(1.0, 1e-3)], SPEC, 48)
    assert rep.passed
    assert rep.lhs_values[0] == pytest.approx(1.0, abs=2e-3)


def test_params_validation():
    with pytest.raises(DomainError):
        TransportParams(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        TransportParams(1.0, -1.0, 1.0)


def test_intensity_value_causality_fields():
    v = IntensityValue(0.0, 0.1)
    assert v.smooth >= 0.0 and v.ballistic_weight >= 0.0


@pytest.mark.parametrize("field", ["c", "ell", "A0"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_refuse_non_finite_values(field, value):
    # A0 = inf used to give an intensity of inf, ell = inf was accepted
    with pytest.raises(DomainError, match="finite and positive"):
        TransportParams(**{field: value})
