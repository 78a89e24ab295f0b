"""Tests for the 2-D radiative transfer solution."""

import math

import pytest

from fltrans.laplace import forward_laplace, sqrt_s2k2
from fltrans.numerics import DomainError, QuadratureSpec
from fltrans.rte2d import (
    IntensityValue,
    PoleError,
    TransportParams,
    check_energy,
    fl_greens_avg,
    fl_intensity,
    intensity,
    resolvent_original_scaled,
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


def test_fl_intensity_pole_error():
    with pytest.raises(PoleError):
        fl_intensity(UNIT, 0.0, 0.0)


def test_resolvent_original():
    res = resolvent_original_scaled(TransportParams())
    assert res.atom_weight == 1.0 and res.atom_location == 0.0
    assert res.eval(1.0) == pytest.approx(math.e, rel=1e-14)
    got = forward_laplace(res, 2.0, SPEC)
    assert got.real == pytest.approx(2.0, rel=1e-10)  # s/(s-1) at s=2

    scaled = resolvent_original_scaled(TransportParams(2.0, 1.0, 1.0))
    assert scaled.eval(0.0) == pytest.approx(2.0)
    assert scaled.sigma0 == 2.0


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
