"""Tests for the Laplace engines: forward quadrature and Talbot inversion."""

import cmath
import math

import pytest

from fltrans.laplace import (
    LaplaceImage,
    TimeOriginal,
    forward_laplace,
    inverse_laplace,
    roundtrip_check,
    sqrt_s2k2,
)
from fltrans.numerics import DomainError, QuadratureSpec

SPEC = QuadratureSpec()

EXP1 = TimeOriginal(lambda t: math.exp(-t), sigma0=-1.0,
                    eval_complex=lambda z: cmath.exp(-z))
POLY11 = TimeOriginal(lambda t: t * math.exp(-t), sigma0=-1.0,
                      eval_complex=lambda z: z * cmath.exp(-z))
SINE1 = TimeOriginal(lambda t: math.sin(t), sigma0=0.0, imag_growth=1.0,
                     eval_complex=lambda z: cmath.sin(z))
UNIT = TimeOriginal(lambda t: 1.0, sigma0=0.0,
                    eval_complex=lambda z: 1.0 + 0.0j)
CATALOG = [
    (EXP1, lambda s: 1.0 / (s + 1.0)),
    (POLY11, lambda s: 1.0 / (s + 1.0) ** 2),
    (SINE1, lambda s: 1.0 / (s * s + 1.0)),
    (UNIT, lambda s: 1.0 / s),
]


# --- sqrt branch -------------------------------------------------------------

def test_sqrt_branch_positive_real_axis():
    assert sqrt_s2k2(2.0, 1.0) == pytest.approx(math.sqrt(5.0), rel=1e-15)
    assert sqrt_s2k2(1.0, 0.0) == 1.0 + 0j


def test_sqrt_branch_deep_left_follows_s():
    # behaves like s, not |s|, left of the cut segment
    v = sqrt_s2k2(complex(-50.0, 3.0), 2.0)
    assert v.real < -49.0
    # continuous across the negative real axis
    up = sqrt_s2k2(complex(-5.0, 1e-12), 1.0)
    dn = sqrt_s2k2(complex(-5.0, -1e-12), 1.0)
    assert abs(up - dn) < 1e-9


def test_sqrt_branch_cut_on_segment():
    # jumps across the imaginary axis inside |Im s| < k, continuous above
    lo_r = sqrt_s2k2(complex(1e-12, 0.5), 1.0)
    lo_l = sqrt_s2k2(complex(-1e-12, 0.5), 1.0)
    assert abs(lo_r - lo_l) > 1.0
    hi_r = sqrt_s2k2(complex(1e-12, 2.0), 1.0)
    hi_l = sqrt_s2k2(complex(-1e-12, 2.0), 1.0)
    assert abs(hi_r - hi_l) < 1e-9


# --- forward transform -------------------------------------------------------

def test_forward_exponential_real_s():
    got = forward_laplace(EXP1, 1.0, SPEC)
    assert got.real == pytest.approx(0.5, rel=1e-11)
    assert abs(got.imag) < 1e-12


def test_forward_unit():
    got = forward_laplace(UNIT, 2.0, SPEC)
    assert got.real == pytest.approx(0.5, rel=1e-11)


def test_forward_atom_sifting():
    atom = TimeOriginal(lambda t: 0.0, sigma0=0.0, atom_location=0.7,
                        atom_weight=1.0, support_upper=0.0)
    for s in (1.0, complex(2.0, 3.0)):
        got = forward_laplace(atom, s, SPEC)
        assert got == pytest.approx(cmath.exp(-0.7 * s), rel=1e-14)


def test_forward_complex_s():
    s = complex(1.0, 2.0)
    got = forward_laplace(EXP1, s, SPEC)
    assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-10)


def test_forward_large_imag_uses_oscillatory_path():
    # without a complex evaluator no ray can be rotated
    plain = TimeOriginal(lambda t: math.exp(-t), sigma0=-1.0)
    s = complex(0.5, 40.0)
    got = forward_laplace(plain, s, SPEC)
    assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-8)


def test_forward_rotated_ray_continuation():
    # left of sigma0 the quadrature diverges on the real axis, but the
    # analytic continuation 1/(s+1) is reachable by ray rotation
    s = complex(-4.0, 6.0)
    got = forward_laplace(EXP1, s, SPEC)
    assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-9)


def test_forward_just_right_of_the_margin_rotates_the_ray():
    # Re s - sigma0 = 0.1003: on the real axis t^2 e^{-0.1 t} grows over
    # many panels, so the transform must run along a rotated ray
    poly21 = TimeOriginal(lambda t: t * t * math.exp(-t), sigma0=-1.0,
                          eval_complex=lambda z: z * z * cmath.exp(-z))
    s = complex(-0.8997, 6.834)
    got = forward_laplace(poly21, s, SPEC)
    assert got == pytest.approx(2.0 / (s + 1.0) ** 3, rel=1e-12)
    assert roundtrip_check(poly21, (1.434,), 48, SPEC) <= 1e-8


def test_forward_domain_error_without_continuation():
    plain = TimeOriginal(lambda t: math.exp(-t), sigma0=-1.0)
    with pytest.raises(DomainError):
        forward_laplace(plain, complex(-4.0, 6.0), SPEC)


def test_forward_linearity():
    # spec invariant, checked through a combined original
    both = TimeOriginal(lambda t: 2.0 * math.exp(-t) + 3.0 * t * math.exp(-t),
                        sigma0=-1.0)
    s = 1.5
    got = forward_laplace(both, s, SPEC)
    want = 2.0 * forward_laplace(EXP1, s, SPEC) + 3.0 * forward_laplace(POLY11, s, SPEC)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_forward_shift_property(a):
    # f(t - a) Theta(t - a) has image e^{-a s} fhat(s), to 1e-9
    shifted = TimeOriginal(lambda t: math.exp(-(t - a)) if t >= a else 0.0,
                           sigma0=-1.0)
    for s in (0.7, 1.5, complex(1.0, 1.0)):
        got = forward_laplace(shifted, s, SPEC)
        want = cmath.exp(-a * s) * forward_laplace(EXP1, s, SPEC)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


@pytest.mark.parametrize("b", [0.5, 1.0])
def test_forward_damping_property(b):
    # e^{-b t} f(t) has image fhat(s + b), to 1e-9
    damped = TimeOriginal(lambda t: math.exp(-b * t) * math.sin(t), sigma0=-b,
                          imag_growth=1.0)
    for s in (0.5, 2.0):
        got = forward_laplace(damped, s, SPEC)
        want = forward_laplace(SINE1, s + b, SPEC)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


# --- Talbot inversion ---------------------------------------------------------

def test_inverse_constant_original():
    got = inverse_laplace(LaplaceImage(lambda s: 1.0 / s), 3.0, 32)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_inverse_exponential():
    got = inverse_laplace(LaplaceImage(lambda s: 1.0 / (s + 1.0)), 1.0, 32)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_inverse_sine_at_peak():
    got = inverse_laplace(LaplaceImage(lambda s: 1.0 / (s * s + 1.0)),
                          math.pi / 2, 48)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_inverse_branch_image_with_enclosure():
    # J0(t) has image 1/sqrt(s^2+1): branch segment must stay enclosed
    from fltrans.numerics import bessel_j
    img = lambda s: 1.0 / sqrt_s2k2(s, 1.0)
    for t in (0.5, 2.0, 5.0):
        got = inverse_laplace(img, t, 48, branch_height=1.0)
        assert got == pytest.approx(bessel_j(0, t), abs=1e-9)


def test_inverse_rejects_bad_nodes_and_time():
    with pytest.raises(DomainError):
        inverse_laplace(lambda s: 1.0 / s, 0.0, 32)
    with pytest.raises(DomainError):
        inverse_laplace(lambda s: 1.0 / s, 1.0, 2)


def test_inverse_aborts_on_non_finite_image():
    from fltrans.laplace import LaplaceError
    with pytest.raises(LaplaceError):
        inverse_laplace(lambda s: float("nan"), 1.0, 16)


def test_talbot_geometric_convergence():
    # spec invariant: error at 48 nodes <= 1e-2 * error at 24 nodes on the
    # rational-image set
    rational = [
        (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
        (lambda s: 1.0 / (s + 2.0), lambda t: math.exp(-2 * t)),
        (lambda s: 1.0 / (s + 0.5), lambda t: math.exp(-0.5 * t)),
        (lambda s: 1.0 / (s + 1.0) ** 2, lambda t: t * math.exp(-t)),
        (lambda s: 1.0 / s, lambda t: 1.0),
        (lambda s: 1.0 / (s * s + 1.0), lambda t: math.sin(t)),
    ]
    errs = {}
    for nodes in (24, 48):
        worst = 0.0
        for image, orig in rational:
            for t in (0.5, 1.0, 2.0):
                rel = abs(inverse_laplace(image, t, nodes) - orig(t)) / max(
                    abs(orig(t)), 1e-12)
                worst = max(worst, rel)
        errs[nodes] = worst
    assert errs[48] <= 1e-2 * errs[24]


# --- roundtrip ------------------------------------------------------------------

def test_roundtrip_exponential():
    assert roundtrip_check(EXP1, (0.5, 1.0, 2.0), 48, SPEC) <= 1e-8


def test_roundtrip_poly_exp():
    assert roundtrip_check(POLY11, (1.0,), 48, SPEC) <= 1e-8


def test_roundtrip_zero_original():
    zero = TimeOriginal(lambda t: 0.0, sigma0=0.0,
                        eval_complex=lambda z: 0.0 + 0.0j)
    assert roundtrip_check(zero, (0.5, 1.5), 48, SPEC) == 0.0


def test_roundtrip_rejects_atom():
    atom = TimeOriginal(lambda t: 1.0, sigma0=0.0, atom_location=0.0,
                        atom_weight=1.0)
    with pytest.raises(DomainError):
        roundtrip_check(atom, (1.0,), 48, SPEC)
