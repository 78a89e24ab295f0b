"""Tests for the Laplace engines: forward quadrature and Talbot inversion."""

import cmath
import math
import re
import sys
import threading
from dataclasses import replace

import pytest

from fltrans.laplace import (
    TimeOriginal,
    _talbot_contour,
    forward_laplace,
    inverse_laplace,
    roundtrip_check,
    sqrt_s2k2,
)
from fltrans.numerics import DomainError, QuadratureSpec, bessel_j
from fltrans.pairs import catalog_lookup

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
    assert sqrt_s2k2(0.0, 2.0) == 0.0  # the branch point itself


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


def test_sqrt_branch_where_k_over_s_squared_overflows():
    # these raised OverflowError, or returned nan+nanj, from (k/s)^2
    assert sqrt_s2k2(1e-200, 1.0) == 1.0
    assert sqrt_s2k2(1e-5, 1e300) == 1e300
    assert sqrt_s2k2(complex(1e-200, 1e-200), 1.0) == 1.0
    # on the imaginary axis the sign is that of -Im s, as at larger |s|
    assert sqrt_s2k2(1e-100j, 1.0) == -1.0
    assert sqrt_s2k2(-1e-100j, 1.0) == 1.0
    assert sqrt_s2k2(1e-200j, 1.0) == -1.0
    assert sqrt_s2k2(-1e-200j, 1.0) == 1.0


@pytest.mark.parametrize("direction", [1.0, cmath.exp(0.3j), cmath.exp(1.2j),
                                       1j, cmath.exp(2.0j), -1.0,
                                       cmath.exp(-2.5j), -1j,
                                       cmath.exp(-0.7j)])
def test_sqrt_branch_is_finite_and_continuous_where_k_over_s_overflows(
        direction):
    # |s| from 1e-150 to 1e-160 crosses the switch near 7e-155; each value
    # is within roundoff of the one before
    radii = [10.0 ** (-150.0 - 0.05 * i) for i in range(201)]
    values = [sqrt_s2k2(r * direction, 1.0) for r in radii]
    assert all(cmath.isfinite(v) for v in values)
    assert all(abs(b - a) <= 1e-15 for a, b in zip(values, values[1:]))
    assert abs(abs(values[0]) - 1.0) <= 1e-15
    # the sweep crosses the switch: (k/s)^2 is finite at the start only
    def square_of_k_over_s(r):
        try:
            return (1.0 / complex(r * direction)) ** 2
        except OverflowError:
            return complex(math.inf)

    assert cmath.isfinite(square_of_k_over_s(radii[0]))
    assert not cmath.isfinite(square_of_k_over_s(radii[-1]))


# --- forward transform -------------------------------------------------------

def test_forward_exponential_real_s():
    got = forward_laplace(EXP1, 1.0, SPEC)
    assert got.real == pytest.approx(0.5, rel=1e-11)
    assert abs(got.imag) < 1e-12


def test_forward_unit():
    got = forward_laplace(UNIT, 2.0, SPEC)
    assert got.real == pytest.approx(0.5, rel=1e-11)


def test_forward_complex_s():
    s = complex(1.0, 2.0)
    got = forward_laplace(EXP1, s, SPEC)
    assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-10)


def test_forward_large_imag_on_the_real_axis():
    # without a complex evaluator no ray can be rotated
    plain = TimeOriginal(lambda t: math.exp(-t), sigma0=-1.0)
    s = complex(0.5, 40.0)
    got = forward_laplace(plain, s, SPEC)
    assert got == pytest.approx(1.0 / (s + 1.0), rel=1e-8)
    # catalog originals stripped of their complex evaluators, far above the
    # |Im s| > 10 max(1, Re s - sigma0) switch to the cos/sin cells
    for oid in ("poly_exp:2,1", "sine:1"):
        entry = catalog_lookup(oid)
        plain = replace(entry.f, eval_complex=None)
        for im in (20.0, 50.0, 120.0, 200.0, -200.0):
            s = complex(plain.sigma0 + 0.5, im)
            got = forward_laplace(plain, s, SPEC)
            assert got == pytest.approx(entry.fhat(s), rel=1e-12), (oid, s)


@pytest.mark.parametrize("a", [10.0, 20.0])
def test_forward_fuses_an_overflowing_damping_factor(a):
    # at Re s = -a + 1.1 the factor e^{-s t} alone overflows on the tail of
    # the real axis; the damped product e^{-(s + a) t} is representable
    entry = catalog_lookup(f"exp_decay:{a:g}")
    for shift in (1.1, 2.6):
        s = entry.f.sigma0 + shift
        got = forward_laplace(entry.f, s, SPEC)
        assert got == pytest.approx(1.0 / (s + a), rel=1e-12), s


@pytest.mark.parametrize("a", [50.0, 200.0, 1000.0])
def test_forward_refuses_an_original_that_underflows_too_early(a):
    # at Re s = -a + 1.1, e^{-a t} underflows to 0 where e^{-(s + a) t} is
    # still above 1e-14; the dropped tail made the value wrong (0.5087 for
    # 1/(s + a) = 0.9091 at a = 1000), so the transform must raise instead
    from fltrans.laplace import LaplaceError
    f = TimeOriginal(lambda t: math.exp(-a * t), sigma0=-a,
                     eval_complex=lambda z: cmath.exp(-a * z))
    with pytest.raises(LaplaceError, match="underflows"):
        forward_laplace(f, f.sigma0 + 1.1, SPEC)


@pytest.mark.parametrize("n", [20, 30, 40])
@pytest.mark.parametrize("shift", [1.1, 2.6])
def test_forward_transform_of_a_late_peaking_original(n, shift):
    # t^n e^{-t} e^{-s t} peaks at t = n/(s + 1), far past the first cells;
    # building the original checks its image by transforming at sigma0 + 1.1
    # and sigma0 + 2.6, once
    entry = catalog_lookup(f"poly_exp:{n},1")
    s = entry.f.sigma0 + shift
    got = forward_laplace(entry.f, s, SPEC)
    assert got == pytest.approx(math.factorial(n) / (s + 1.0) ** (n + 1),
                                rel=1e-12)


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


@pytest.mark.parametrize("s", [-3.0, complex(-3.0, 0.5)])
def test_forward_refuses_a_point_no_ray_reaches(s):
    # e^{-u}: every ray of the fan decays at a rate below 0.25 here
    f = catalog_lookup("exp_decay:1").f
    with pytest.raises(DomainError, match="no convergent integration ray"):
        forward_laplace(f, s, SPEC)


@pytest.mark.parametrize("sigma0", [-math.inf, math.inf, math.nan])
def test_an_original_refuses_a_growth_abscissa_not_finite(sigma0):
    # sigma0 = -inf made forward_laplace(sin) return 0.4715-0.1528j at
    # s = -0.5+3j, where 1/(s^2+1) = -0.1122+0.0434j; NaN and +inf
    # failed later with "no convergent integration ray"
    with pytest.raises(DomainError, match="sigma0 must be finite"):
        TimeOriginal(math.sin, sigma0=sigma0, eval_complex=cmath.sin)


@pytest.mark.parametrize("growth", [-1.0, math.nan, math.inf])
def test_an_original_refuses_an_imag_growth_not_finite_and_nonnegative(growth):
    # imag_growth = -1 used to fail only inside an inversion, on its
    # branch height
    with pytest.raises(DomainError, match="imag_growth must be finite and >= 0"):
        TimeOriginal(math.sin, imag_growth=growth, eval_complex=cmath.sin)


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
    got = inverse_laplace(lambda s: 1.0 / s, 3.0, 32)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_inverse_exponential():
    got = inverse_laplace(lambda s: 1.0 / (s + 1.0), 1.0, 32)
    assert got == pytest.approx(math.exp(-1.0), rel=1e-10)


def test_inverse_sine_at_peak():
    got = inverse_laplace(lambda s: 1.0 / (s * s + 1.0), math.pi / 2, 48)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_inverse_branch_image_with_enclosure():
    # J0(t) has image 1/sqrt(s^2+1): branch segment must stay enclosed
    img = lambda s: 1.0 / sqrt_s2k2(s, 1.0)
    for t in (0.5, 2.0, 5.0):
        got = inverse_laplace(img, t, 48, branch_height=1.0)
        assert got == pytest.approx(bessel_j(0, t), abs=1e-9)


@pytest.mark.xfail(reason="ROADMAP item 14: the contour skips nodes with "
                   "Re(s t) < -60, where a delayed image is not negligible")
@pytest.mark.parametrize("a", [1.4, 1.6, 1.65])
def test_inverse_of_a_delayed_image(a):
    # exp(-a q)/q, q = sqrt(s^2 + k^2) <-> J0(k sqrt(t^2 - a^2)) Theta(t - a);
    # off by 1.9e-7, 1.6e-3 and 9.7e-3
    k, t = 2.0, 1.72
    img = lambda s: cmath.exp(-a * sqrt_s2k2(s, k)) / sqrt_s2k2(s, k)
    got = inverse_laplace(img, t, 48, branch_height=k)
    assert abs(got - bessel_j(0, k * math.sqrt(t * t - a * a))) <= 1e-8


@pytest.mark.xfail(reason="ROADMAP item 1: once 1.15 * branch height sets "
                   "the contour radius, roundoff grows like e^{1.15 h t}")
@pytest.mark.parametrize("image, original", [
    (lambda s: 1.0 / (s + 1.0), lambda t: math.exp(-t)),
    (lambda s: 1.0 / sqrt_s2k2(s, 40.0), lambda t: bessel_j(0, 40.0 * t))],
    ids=["pole", "branch"])
def test_inverse_at_branch_height_40(image, original):
    # off by 3.6e-3 and 3.0e-3 at t = 0.7
    got = inverse_laplace(image, 0.7, 48, branch_height=40.0)
    assert abs(got - original(0.7)) <= 1e-8


def test_inverse_rejects_bad_nodes_and_time():
    with pytest.raises(DomainError):
        inverse_laplace(lambda s: 1.0 / s, 0.0, 32)
    with pytest.raises(DomainError):
        inverse_laplace(lambda s: 1.0 / s, 1.0, 2)


@pytest.mark.parametrize("height", [0.0, 1.0])
def test_inverse_refuses_an_infinite_time(height):
    # returned nan at height 0 and raised a bare ValueError at height 1
    with pytest.raises(DomainError, match="finite and positive"):
        inverse_laplace(lambda s: 1.0 / s, math.inf, 32, branch_height=height)


def test_inverse_refuses_a_time_too_small_for_a_finite_radius():
    # the radius 0.3 * 2N/(5t) overflowed and the image was blamed at s = inf
    with pytest.raises(DomainError, match="contour radius overflows"):
        inverse_laplace(lambda s: 1.0 / (s + 1.0), 1e-310, 48)


def test_inverse_refuses_a_nan_branch_height():
    # max() used to drop the nan and invert as if the height were 0
    with pytest.raises(DomainError, match="branch height"):
        inverse_laplace(lambda s: 1.0 / s, 1.0, 32, branch_height=math.nan)


def test_inverse_refuses_an_infinite_branch_height():
    # used to raise LaplaceError, blaming the image for an infinite radius
    with pytest.raises(DomainError, match="branch height"):
        inverse_laplace(lambda s: 1.0 / s, 1.0, 32, branch_height=math.inf)


def test_inverse_refuses_a_fractional_node_count():
    # used to raise TypeError from range()
    with pytest.raises(DomainError, match="must be an integer"):
        inverse_laplace(lambda s: 1.0 / s, 1.0, 48.5)


def test_inverse_aborts_on_non_finite_image():
    from fltrans.laplace import LaplaceError
    with pytest.raises(LaplaceError):
        inverse_laplace(lambda s: float("nan"), 1.0, 16)


def test_inverse_names_the_first_node_where_the_image_is_not_finite():
    # the sum is checked once at the end; the error must still name the
    # node, here the only one with Im s in (1.0, 1.5)
    from fltrans.laplace import LaplaceError
    contour = _talbot_contour(16, 0.3 * 2.0 * 16 / 5.0, 1.0)
    (bad,) = [s for s, _, _ in contour if 1.0 < s.imag < 1.5]

    def image(s):
        return math.nan if s == bad else 1.0 / (s + 1.0)

    with pytest.raises(LaplaceError, match=re.escape(f"s={bad}")):
        inverse_laplace(image, 1.0, 16)


def test_inverse_names_the_base_node_where_only_it_is_not_finite():
    # the base node s = r is the first node of the contour table and is
    # found by the same rescan as every other node
    from fltrans.laplace import LaplaceError
    base = complex(0.3 * 2.0 * 16 / 5.0, 0.0)

    def image(s):
        return math.nan if s == base else 1.0 / (s + 1.0)

    with pytest.raises(LaplaceError,
                       match=re.escape(f"contour node s={base}")):
        inverse_laplace(image, 1.0, 16)


def test_inverse_raises_on_a_contour_sum_that_overflows():
    # every image value is finite, but e^{st} F(s) overflows at some node
    from fltrans.laplace import LaplaceError
    with pytest.raises(LaplaceError, match="contour sum not finite"):
        inverse_laplace(lambda s: 1e308 * (1.0 + 1.0j), 1.0, 16)


def test_inverse_of_a_float_image_equals_that_of_its_complex_twin():
    # an image may return Python floats, as 1/s does at real s
    for t in (0.3, 1.0, 4.0):
        assert (inverse_laplace(lambda s: (s * s.conjugate()).real, t, 24)
                == inverse_laplace(lambda s: complex((s * s.conjugate()).real), t, 24))


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


def test_roundtrip_raises_the_contour_above_the_image_poles():
    # the poles of sine:1 at s = +-i: on a contour that ignores them the
    # error was 7.5e-10 at t = 7, and from t = 8 on the shrinking contour
    # came so near +-i that forward_laplace raised DomainError
    sine = catalog_lookup("sine:1").f
    assert roundtrip_check(sine, (6.0, 7.0, 8.0, 10.0), 48, SPEC) <= 1.9e-12


def test_roundtrip_zero_original():
    zero = TimeOriginal(lambda t: 0.0, sigma0=0.0,
                        eval_complex=lambda z: 0.0 + 0.0j)
    assert roundtrip_check(zero, (0.5, 1.5), 48, SPEC) == 0.0


# --- node table -------------------------------------------------------------------

def _talbot_reference(image, t, nodes, branch_height):
    # the fixed-Talbot sum with every node quantity computed at its node
    r = max(0.30 * 2.0 * nodes / (5.0 * t), 1.15 * branch_height)
    total = 0.5 * cmath.exp(r * t) * complex(image(complex(r, 0.0)))
    for j in range(1, nodes):
        theta = j * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * complex(cot, 1.0)
        if (s * t).real < -60.0:
            continue
        sigma = theta + (theta * cot - 1.0) * cot
        total += (cmath.exp(s * t) * complex(image(s))
                  * complex(1.0, sigma)).real
    return (r / nodes) * total.real


@pytest.mark.parametrize("nodes", [4, 24, 48, 96])
@pytest.mark.parametrize("t, height", [(1.3, 0.0), (0.7, 40.0)])
def test_inverse_laplace_node_table_is_bit_identical(nodes, t, height):
    # height 0: the radius comes from t; height 40: from the branch height,
    # at every node count, with the deep nodes under the exponent floor
    # each case twice, first building its contour table and then reading
    # it back, with inversions at other times in between
    for image in (lambda s: 1.0 / (s + 1.0),
                  lambda s: 1.0 / sqrt_s2k2(s, 40.0)):
        want = _talbot_reference(image, t, nodes, height)
        _talbot_contour.cache_clear()
        assert inverse_laplace(image, t, nodes, branch_height=height) == want
        for other in (0.4, 2.5, 6.0):
            inverse_laplace(image, other, nodes, branch_height=height)
        assert _talbot_contour.cache_info()[:2] == (0, 4)  # (hits, misses)
        assert inverse_laplace(image, t, nodes, branch_height=height) == want
        assert _talbot_contour.cache_info()[:2] == (1, 4)


def test_contour_table_is_shared_safely_between_threads():
    # 4 threads invert 40 times each, in rotated orders, through a table
    # that holds 16; each result must equal the single-threaded reference
    times = [0.5 + 0.25 * j for j in range(40)]
    image = lambda s: 1.0 / (s + 1.0)
    want = {t: _talbot_reference(image, t, 24, 0.0) for t in times}
    got, errors = [], []

    def work(shift):
        try:
            for t in times[shift:] + times[:shift]:
                got.append(inverse_laplace(image, t, 24) == want[t])
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(7 * i,)) for i in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert not errors and len(got) == 160 and all(got)


def test_contour_table_is_bounded():
    for j in range(100):
        inverse_laplace(lambda s: 1.0 / (s + 1.0), 0.5 + 0.01 * j, 24)
    assert _talbot_contour.cache_info().currsize <= 16
