"""Tests for the d-dimensional radial Fourier transforms."""

import math
import random

import pytest

from fltrans.numerics import DomainError, QuadratureSpec
from fltrans.radial_fourier import (
    Dimension,
    RadialProfile,
    forward,
    forward_result,
    inverse,
    kernel_ghat,
    radial_quadrature,
    sphere_measure,
)

SPEC = QuadratureSpec()

GAUSSIAN = RadialProfile(lambda r: math.exp(-0.5 * r * r), decay_class="gaussian")
EXPONENTIAL = RadialProfile(lambda r: math.exp(-r), decay_class="exponential")
YUKAWA = RadialProfile(lambda r: math.exp(-r) / r if r > 0 else 0.0,
                       decay_class="exponential")


def test_sphere_measures():
    assert sphere_measure(Dimension(2)) == pytest.approx(2 * math.pi, rel=1e-14)
    assert sphere_measure(Dimension(3)) == pytest.approx(4 * math.pi, rel=1e-14)
    assert sphere_measure(Dimension(1)) == pytest.approx(2.0, rel=1e-14)


def test_kernel_closed_form_values():
    assert kernel_ghat(2, 1.0, 0.0) == 1.0
    assert kernel_ghat(1, math.pi, 1.0) == pytest.approx(-1.0, rel=1e-14)
    assert kernel_ghat(3, 2.0, math.pi) == pytest.approx(0.0, abs=1e-14)


def test_kernel_general_formula_matches_closed_forms():
    # spec invariant: general Bessel formula vs closed forms, 1e-12 absolute
    def general(d, z):
        if z == 0.0:
            return 1.0
        nu = 0.5 * d - 1.0
        from fltrans.numerics import bessel_j, gamma_fn
        return gamma_fn(0.5 * d) * (0.5 * z) ** (1 - 0.5 * d) * bessel_j(nu, z)

    for d in (1, 2, 3):
        for i in range(501):
            z = 50.0 * i / 500
            assert kernel_ghat(d, 1.0, z) == pytest.approx(general(d, z), abs=1e-12)


def test_kernel_d4_small_argument_series_matches_bessel():
    for z in (1e-12, 1e-6, 0.3, 0.49, 0.51, 2.0):
        from fltrans.numerics import bessel_j
        expected = 1.0 if z == 0 else 2.0 / z * bessel_j(1, z)  # Gamma(2)(z/2)^-1 J_1
        assert kernel_ghat(4, 1.0, z) == pytest.approx(expected, abs=1e-13)


def test_forward_gaussian_dc():
    # d=2 Gaussian at k=0: polar-coordinates oracle 2 pi
    assert forward(Dimension(2), GAUSSIAN, 0.0, SPEC) == pytest.approx(
        2 * math.pi, rel=1e-10)


def test_forward_gaussian_self_transform():
    assert forward(Dimension(2), GAUSSIAN, 1.0, SPEC) == pytest.approx(
        2 * math.pi * math.exp(-0.5), rel=1e-10)


def test_forward_gaussian_d4_general_formula():
    # the Gaussian is a self-transform in every dimension
    for k in (0.0, 1.0, 2.5):
        got = forward(Dimension(4), GAUSSIAN, k, SPEC)
        want = (2 * math.pi) ** 2 * math.exp(-0.5 * k * k)
        assert got == pytest.approx(want, rel=1e-9)


def test_forward_yukawa_d3():
    # 4 pi / (1 + k^2) oracle
    assert forward(Dimension(3), YUKAWA, 1.0, SPEC) == pytest.approx(
        2 * math.pi, rel=1e-10)


def test_dc_value_equals_plain_radial_integral():
    # spec invariant: forward(d, f, 0) = S_d int f r^{d-1} dr to 1e-10
    from fltrans.numerics import integrate_semi_infinite
    for d in (1, 2, 3):
        dim = Dimension(d)
        plain = integrate_semi_infinite(
            lambda r: math.exp(-r) * r ** (d - 1), 0.0, SPEC)
        assert plain.converged
        want = sphere_measure(dim) * plain.value
        assert forward(dim, EXPONENTIAL, 0.0, SPEC) == pytest.approx(want, rel=1e-10)


def test_inverse_gaussian_round_trip_origin():
    img = RadialProfile(lambda k: 2 * math.pi * math.exp(-0.5 * k * k),
                        decay_class="gaussian")
    assert inverse(Dimension(2), img, 0.0, SPEC) == pytest.approx(1.0, rel=1e-9)


def test_inverse_yukawa_image_d3():
    # algebraic image tail drives the oscillatory engine
    img = RadialProfile(lambda k: 4 * math.pi / (1 + k * k),
                        decay_class="algebraic")
    assert inverse(Dimension(3), img, 1.0, SPEC) == pytest.approx(
        math.exp(-1.0), rel=1e-8)


def test_inverse_zero_profile():
    zero = RadialProfile(lambda k: 0.0, decay_class="compact", support_upper=1.0)
    assert inverse(Dimension(1), zero, 0.7, SPEC) == 0.0


# Round trips nest two quadratures; the outer one runs at a loosened spec
# (still two decades inside the 1e-6 target) to keep the suite fast.
OUTER = QuadratureSpec(abs_tol=1e-9, rel_tol=3e-8, max_subdivisions=400)


def round_trip(d, profile, r, image_decay):
    dim = Dimension(d)
    img = RadialProfile(lambda k: forward(dim, profile, k, SPEC),
                        decay_class=image_decay)
    return inverse(dim, img, r, OUTER)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("r", [0.0, 0.5, 2.0])
def test_round_trip_gaussian(d, r):
    # spec invariant: inverse(forward(f)) = f to 1e-6 relative
    want = GAUSSIAN.eval(r)
    assert round_trip(d, GAUSSIAN, r, "gaussian") == pytest.approx(want, rel=1e-6)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_round_trip_exponential(d):
    # the image of e^{-r} decays algebraically: inverse goes through the
    # oscillatory engine
    r = 1.0
    want = EXPONENTIAL.eval(r)
    assert round_trip(d, EXPONENTIAL, r, "algebraic") == pytest.approx(
        want, rel=1e-6)


def test_transform_pair_symmetry():
    # forward-then-inverse and inverse-then-forward agree: the two
    # directions differ only by the (2 pi)^d factor
    dim = Dimension(2)
    f_then_i = inverse(dim, RadialProfile(
        lambda k: forward(dim, GAUSSIAN, k, SPEC), decay_class="gaussian"),
        0.5, OUTER)
    i_then_f = forward(dim, RadialProfile(
        lambda k: inverse(dim, GAUSSIAN, k, SPEC), decay_class="gaussian"),
        0.5, OUTER)
    assert f_then_i == pytest.approx(GAUSSIAN.eval(0.5), rel=1e-6)
    assert i_then_f == pytest.approx(GAUSSIAN.eval(0.5), rel=1e-6)


# --- radial_quadrature ----------------------------------------------------------

@pytest.mark.parametrize("k", [0.0, 0.3, 1.0, 4.0, 7.0, 20.0])
@pytest.mark.parametrize("h", [0.5, 2.0])
def test_light_cone_substitution_closed_form(h, k):
    # 2 pi int_0^h r J0(k r) / sqrt(h^2 - r^2) dr = 2 pi sin(k h) / k, at
    # k h away from the zeros of sin, where a relative error is meaningful
    g = lambda r: 1.0 / math.sqrt(h * h - r * r)
    res = radial_quadrature(2, g, k, 0.0, h, "light_cone", SPEC)
    want = 2.0 * math.pi * (math.sin(k * h) / k if k > 0.0 else h)
    assert res.converged
    assert abs(res.value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("h", [0.25, 1.0, 9.0])
def test_origin_substitution_closed_form(h):
    # S_1 int_0^h r^(-1/2) dr = 4 sqrt(h)
    res = radial_quadrature(1, lambda r: r ** -0.5, 0.0, 0.0, h, "origin",
                            SPEC)
    assert res.converged
    assert res.value == pytest.approx(4.0 * math.sqrt(h), rel=1e-12)


def test_unknown_substitution_raises():
    with pytest.raises(DomainError, match="unknown substitution"):
        radial_quadrature(2, lambda r: 1.0, 1.0, 0.0, 1.0, "w^3", SPEC)


# --- Gaussian tails at large k ----------------------------------------------------

def _gaussian_miss(d, k):
    # |error| beyond the engine's own estimate (floor 1e-12); the exact
    # transform is (2 pi)^(d/2) e^(-k^2/2)
    res = forward_result(Dimension(d), GAUSSIAN, k, SPEC)
    want = (2.0 * math.pi) ** (0.5 * d) * math.exp(-0.5 * k * k)
    return abs(res.value - want) - max(res.error_estimate, 1e-12)


def test_gaussian_at_large_k_is_not_accelerated_to_a_wrong_value():
    # Wynn's epsilon used to settle on -6.3e-10 here with estimate 6.3e-13
    assert _gaussian_miss(2, 10.660299995276421) <= 0.0


def test_gaussian_seeded_sweep_above_the_oscillatory_wavenumber():
    rng = random.Random(1)
    draws = [(rng.randint(1, 6), rng.uniform(8.0, 40.0)) for _ in range(120)]
    misses = [(d, k) for d, k in draws if _gaussian_miss(d, k) > 0.0]
    assert misses == []
