"""Tests for the special-function and quadrature engines."""

import itertools
import math
import random
import threading
from fractions import Fraction

import pytest

from fltrans import numerics
from fltrans.numerics import (
    DomainError,
    IntegralResult,
    QuadratureSpec,
    bessel_j,
    bessel_j_zero,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)

SPEC = QuadratureSpec()


def j0_series_oracle(x, terms=60):
    # brute-force ascending series, independent of the production path
    total = 0.0
    term = 1.0
    for m in range(terms):
        if m > 0:
            term *= -(x * x / 4.0) / (m * m)
        total += term
    return total


# --- bessel_j -------------------------------------------------------------

def test_j0_at_zero():
    assert bessel_j(0, 0.0) == 1.0


def test_j_half_closed_form():
    # J_{1/2}(x) = sqrt(2/(pi x)) sin x; at x = pi/2 this is 2/pi
    assert bessel_j(0.5, math.pi / 2) == pytest.approx(2.0 / math.pi, abs=1e-13)


def test_j0_first_zero_from_series_oracle():
    x0 = 2.404825557695773
    assert abs(j0_series_oracle(x0)) < 1e-12  # oracle sanity
    assert abs(bessel_j(0, x0)) < 1e-10


def test_integer_orders_match_series_oracle_small_x():
    # independent check of the Miller-recurrence branch against the series
    # in the overlap region where both are accurate
    for n in (0, 1, 2, 3):
        for x in (5.0, 6.5, 8.0 + 1e-9, 9.0, 10.5):
            series = 0.0
            term = (x / 2.0) ** n / math.gamma(n + 1.0)
            for m in range(0, 80):
                if m > 0:
                    term *= -(x * x / 4.0) / (m * (n + m))
                series += term
            assert bessel_j(n, x) == pytest.approx(series, abs=5e-12)


def test_half_integer_orders_match_trig_forms():
    # closed trigonometric forms, spec invariant: 1e-12 absolute on [1e-3, 100]
    for i in range(60):
        x = 1e-3 * (100.0 / 1e-3) ** (i / 59.0)
        c = math.sqrt(2.0 / (math.pi * x))
        assert bessel_j(-0.5, x) == pytest.approx(c * math.cos(x), abs=1e-12)
        assert bessel_j(0.5, x) == pytest.approx(c * math.sin(x), abs=1e-12)
        assert bessel_j(1.5, x) == pytest.approx(
            c * (math.sin(x) / x - math.cos(x)), abs=1e-12)


def test_recurrence_identity_log_grid():
    # J_{nu-1}(x) + J_{nu+1}(x) = (2 nu / x) J_nu(x) to 1e-10
    for nu in (1.0, 2.0, 1.5, 2.5):
        for i in range(40):
            x = 0.05 * (100.0 / 0.05) ** (i / 39.0)
            lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
            rhs = (2.0 * nu / x) * bessel_j(nu, x)
            assert lhs == pytest.approx(rhs, abs=1e-10)


def test_j_minus_one_is_minus_j1():
    for x in (0.3, 2.0, 17.0):
        assert bessel_j(-1, x) == pytest.approx(-bessel_j(1, x), abs=1e-14)


def test_bessel_domain_errors():
    with pytest.raises(DomainError):
        bessel_j(0.25, 1.0)
    with pytest.raises(DomainError):
        bessel_j(0, -1.0)
    with pytest.raises(DomainError):
        bessel_j(-2, 1.0)


@pytest.mark.parametrize("order", [math.nan, math.inf, -math.inf])
def test_bessel_non_finite_order_refused(order):
    with pytest.raises(DomainError, match="unsupported Bessel order"):
        bessel_j(order, 3.0)


def test_orders_near_a_table_order_take_the_table():
    for x in (0.0, 0.3, 3.0, 17.0):
        assert bessel_j(1 + 1e-13, x) == bessel_j(1, x)
        assert bessel_j(-1 - 1e-13, x) == bessel_j(-1, x)
        assert bessel_j(1e-13, x) == bessel_j(0, x)


def test_bessel_zeros():
    assert bessel_j_zero(0.5, 3) == pytest.approx(3 * math.pi, rel=1e-15)
    z1 = bessel_j_zero(0.0, 1)
    assert z1 == pytest.approx(2.404825557695773, abs=1e-12)
    for n in (1, 2, 5, 20):
        z = bessel_j_zero(1.0, n)
        assert abs(bessel_j(1, z)) < 1e-12


@pytest.mark.parametrize("order, n", [(0.5, 2.5), (-0.5, 1.5), (0.0, 1.5),
                                      (0.0, 0), (1.0, -2), (0.0, math.nan),
                                      (0.0, math.inf), (1.0, -math.inf)])
def test_bessel_zero_refuses_an_index_that_is_not_an_integer_from_one(order, n):
    # (0.5, 2.5) returned 2.5 pi, (0, 1.5) returned j_{0,4}, and NaN or
    # inf failed inside bessel_j with "requires finite x"
    with pytest.raises(DomainError, match="zero index"):
        bessel_j_zero(order, n)


def test_bessel_zero_takes_an_integral_float_index():
    assert bessel_j_zero(0.0, 3.0) == bessel_j_zero(0.0, 3)
    assert bessel_j_zero(0.5, 2.0) == 2.0 * math.pi


def test_bessel_zeros_are_cached_and_the_cache_is_bounded():
    cases = [(order, n) for order in (0.0, 0.5, 1.0, 1.5, 2.0) for n in (1, 2, 7, 40)]
    before = [bessel_j_zero(order, n) for order, n in cases]
    bessel_j_zero.cache_clear()
    assert [bessel_j_zero(order, n) for order, n in cases] == before
    assert bessel_j_zero.cache_info().hits == 0
    for n in range(1, 1200):
        bessel_j_zero(2.0, n)
    info = bessel_j_zero.cache_info()
    assert info.maxsize == 1024 and info.currsize == 1024


def test_bessel_zeros_match_mpmath_and_increase_through_order_21():
    # mpmath is a test-only oracle; the orders nu = d/2 - 1 of d = 2, 5,
    # ..., 44, both families, the zeros within 1e-13 relative and
    # increasing in n
    mpmath = pytest.importorskip("mpmath")
    indices = (1, 2, 3, 5, 10, 20, 40)
    for d in range(2, 45, 3):
        nu = 0.5 * d - 1.0
        zeros = [bessel_j_zero(nu, n) for n in indices]
        assert all(x < y for x, y in itertools.pairwise(zeros)), d
        for n, z in zip(indices, zeros):
            want = float(mpmath.besseljzero(nu, n))
            assert abs(z - want) <= 1e-13 * want, (d, n)


@pytest.mark.xfail(reason="FOUND in CHANGES.md: McMahon's expansion starts "
                          "Newton far from the first zero at large order")
def test_bessel_zero_at_order_28():
    # mpmath.besseljzero(28, 1); the McMahon start sends Newton to 17.29,
    # below the order, where J_28 has no zero
    assert bessel_j_zero(28.0, 1) == pytest.approx(33.97493005874869, rel=1e-12)


def test_start_pair_equals_the_table_j0_and_j1_bit_for_bit():
    # the one-pass sums of the start pair against _bessel_j0 and _bessel_j1
    rng = random.Random(11)
    xs = ([rng.uniform(0.0, 8.0) for _ in range(3000)]
          + [math.exp(rng.uniform(math.log(8.0), math.log(1e4))) for _ in range(3000)]
          + [8.0, math.nextafter(8.0, 9.0), 1e-300, 1e4])
    for x in xs:
        assert numerics._start_pair(2.0, x) == (
            0.0, numerics._bessel_j0(x), numerics._bessel_j1(x)), x


# orders for the large-argument checks: every order the transforms use
# plus a few higher ones
LARGE_X_ORDERS = (-1, 0, 1, 2, 3, 5, 8, 12)


def test_integer_orders_match_scipy_above_eight():
    # scipy is a test-only oracle; 1e-15 absolute on log-spaced (8, 1e5]
    special = pytest.importorskip("scipy.special")
    for n in LARGE_X_ORDERS:
        for i in range(1, 201):
            x = 8.0 * (1e5 / 8.0) ** (i / 200.0)
            assert abs(bessel_j(n, x) - float(special.jv(n, x))) <= 1e-15, (n, x)


def test_large_arguments_never_take_the_recurrence(monkeypatch):
    # cost contract: from x = 20 + n^2 on, the O(x) Miller recurrence is
    # never run, whatever the size of x
    def refuse(n, x):
        raise AssertionError(f"Miller recurrence at n={n}, x={x}")

    monkeypatch.setattr(numerics, "_bessel_miller", refuse)
    for n in LARGE_X_ORDERS:
        start = 20.0 + n * n
        for i in range(41):
            x = start * (1e6 / start) ** (i / 40.0)
            assert abs(bessel_j(n, x)) <= 1.0


def test_branches_agree_at_the_switch_point():
    # at x = n > 8 bessel_j switches from the downward (Miller) recurrence
    # to the upward one; the two must give the same value there
    for n in (9, 12):
        x = float(n)
        assert abs(numerics._bessel_miller(n, x) - bessel_j(n, x)) <= 1e-15, n


def test_table_orders_match_scipy_up_to_eight():
    # J0 and J1 come from fixed tables: 2e-15 absolute on 2000 points of [0, 8]
    special = pytest.importorskip("scipy.special")
    for n in (-1, 0, 1):
        for i in range(2000):
            x = 8.0 * i / 1999
            assert abs(bessel_j(n, x) - float(special.jv(n, x))) <= 2e-15, (n, x)


def test_upward_recurrence_matches_scipy_from_x_equal_n():
    # the recurrence from the table J0 and J1 is least accurate where it
    # starts, at x = n: 1e-15 absolute from there to max(8, n) + 40
    special = pytest.importorskip("scipy.special")
    for n in (2, 3, 5, 8, 12):
        for i in range(round(10.0 * (max(8.0, n) + 40.0 - n)) + 1):
            x = n + 0.1 * i
            assert abs(bessel_j(n, x) - float(special.jv(n, x))) <= 1e-15, (n, x)


def test_low_orders_never_take_the_downward_recurrence(monkeypatch):
    # cost contract: orders n <= 8 never run the O(x) Miller recurrence,
    # which serves only 8 < x < n
    def refuse(n, x):
        raise AssertionError(f"Miller recurrence at n={n}, x={x}")

    monkeypatch.setattr(numerics, "_bessel_miller", refuse)
    for n in range(-1, 9):
        for i in range(1001):
            assert abs(bessel_j(n, 0.05 * i)) <= 1.0
        for i in range(41):
            assert abs(bessel_j(n, 50.0 * (1e6 / 50.0) ** (i / 40.0))) <= 1.0


def test_both_order_families_match_scipy_on_zero_to_sixty():
    # one path for integer orders 2..60 and half-integer orders 1.5..59.5:
    # upward recurrence, series and Miller's recurrence all within 2e-14
    # absolute of scipy on (0, 60]
    special = pytest.importorskip("scipy.special")
    xs = [1e-6, 1e-3, 0.05, 0.5] + [0.2 * i for i in range(1, 301)]
    for n in range(2, 61):
        for nu in (float(n), n - 0.5):
            for x in xs:
                err = abs(bessel_j(nu, x) - float(special.jv(nu, x)))
                assert err <= 2e-14, (nu, x)


def test_miller_starts_above_the_requested_order():
    # J_60(9) is 1.34e-43; a recurrence started below order 60 returned
    # J0(9) = -0.0903 instead
    assert bessel_j(60, 9.0) == pytest.approx(
        1.342813628309903768e-43, rel=1e-12)


# --- integrate_adaptive ------------------------------------------------------

def test_adaptive_constant():
    res = integrate_adaptive(lambda x: 1.0, 0.0, 2.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-14)


def test_adaptive_exponential():
    res = integrate_adaptive(lambda x: math.exp(-x), 0.0, 1.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 - math.exp(-1.0), rel=1e-13)


def test_adaptive_endpoint_singularity():
    # integral of 1/sqrt(x) on (0,1) = 2; endpoint is never evaluated.  The
    # bisected cells leave the magnitude, which sums the final partition
    # only: for a positive integrand it is the value to the last bit
    res = integrate_adaptive(lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, SPEC)
    assert res.converged and res.evaluations > 21
    assert res.value == pytest.approx(2.0, abs=5e-11)
    assert res.magnitude == res.value


def test_adaptive_polynomials_exact():
    # spec invariant: polynomials up to the rule order are exact to 1e-14
    for deg in range(14):
        res = integrate_adaptive(lambda x, d=deg: x**d, 0.0, 1.0, SPEC)
        assert res.converged
        assert res.value == pytest.approx(1.0 / (deg + 1), rel=1e-14)


def test_panel_rule_degrees_on_a_shifted_interval():
    # K21 is exact for degree <= 31 and its embedded G10 for degree <= 19;
    # a mistyped node or weight breaks one of these moments
    a, b = -0.5, 1.5
    center, halflen = 0.5 * (a + b), 0.5 * (b - a)
    for j in range(32):
        exact = float((Fraction(b) ** (j + 1) - Fraction(a) ** (j + 1)) / (j + 1))
        kronrod, _, _ = numerics._gk21(lambda x: x**j, a, b)
        assert abs(kronrod - exact) <= 1e-15 * abs(exact), j
        if j <= 19:
            gauss = halflen * sum(
                wg * ((center - halflen * x) ** j + (center + halflen * x) ** j)
                for x, _, wg in numerics._GAUSS_NODES)
            assert abs(gauss - exact) <= 1e-15 * abs(exact), j


def test_adaptive_complex_integrand():
    res = integrate_adaptive(lambda x: complex(math.cos(x), math.sin(x)),
                             0.0, math.pi / 2, SPEC)
    assert res.converged
    assert res.value.real == pytest.approx(1.0, rel=1e-13)
    assert res.value.imag == pytest.approx(1.0, rel=1e-13)


def test_adaptive_honest_failure():
    # needle the budget cannot resolve: converged must be False
    tight = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13, max_subdivisions=4)
    res = integrate_adaptive(lambda x: 1.0 / math.sqrt(abs(x - 0.7) + 1e-14),
                             0.0, 1.0, tight)
    assert not res.converged


def test_adaptive_nan_integrand_returns_unconverged():
    # a NaN estimate meets no tolerance and no bisection can mend it, so
    # the first panel ends the loop
    results = []
    worker = threading.Thread(target=lambda: results.append(
        integrate_adaptive(lambda x: math.nan, 0.0, 1.0, SPEC)), daemon=True)
    worker.start()
    worker.join(timeout=30.0)
    assert results, "integrate_adaptive did not return within 30 s"
    assert not results[0].converged
    assert results[0].evaluations == 21


def test_an_integral_past_the_float_range_is_unconverged():
    # the total overflows, so tol = rel_tol |total| is infinite and any
    # estimate would meet it; the first panel must end the loop unconverged
    def f(x):
        return 1.7e308 * math.exp(-0.5 * x)

    for res in (integrate_adaptive(f, 0.0, 1.0, SPEC),
                integrate_semi_infinite(f, 0.0, SPEC)):
        assert not res.converged
        assert res.evaluations == 21


def test_adaptive_invariant_on_convergence():
    res = integrate_adaptive(lambda x: math.sin(3 * x) ** 2, 0.0, 4.0, SPEC)
    assert res.converged
    assert res.error_estimate <= max(SPEC.abs_tol, SPEC.rel_tol * abs(res.value))


def test_adaptive_rejects_reversed_interval():
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: x, 1.0, 0.0, SPEC)


def test_adaptive_empty_interval_evaluates_nothing():
    def never(x):
        raise AssertionError("the integrand was evaluated")

    res = integrate_adaptive(never, 1.0, 1.0, SPEC)
    assert res == IntegralResult(0.0, 0.0, True, 0, 0.0)
    assert integrate_adaptive(never, 2.0, 2.0, SPEC, breaks=(2.0, 2.0)) == res


def test_adaptive_magnitude_is_the_kronrod_integral_of_the_absolute_value():
    # sin has no net area over a period but an absolute one of 4.  One K21
    # panel meets the tolerance on (0, 2 pi), across the kink of |sin| at pi,
    # so there the magnitude is an estimate (3.963), not a bound; on the half
    # periods, where sin keeps its sign, the panels give 2 each
    res = integrate_adaptive(math.sin, 0.0, 2.0 * math.pi, SPEC)
    assert res.converged and abs(res.value) <= 1e-12
    assert res.magnitude == pytest.approx(4.0, rel=1e-2)
    halves = [integrate_adaptive(math.sin, a, a + math.pi, SPEC)
              for a in (0.0, math.pi)]
    assert sum(h.magnitude for h in halves) == pytest.approx(4.0, abs=1e-12)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (-math.inf, math.inf), (math.nan, 1.0),
                                  (0.0, math.nan)])
def test_adaptive_rejects_an_endpoint_not_finite(a, b):
    # an infinite endpoint gave NaN: the panel nodes reached inf
    with pytest.raises(DomainError):
        integrate_adaptive(lambda x: math.exp(-x * x), a, b, SPEC)


def test_adaptive_breaks_start_the_bisection_from_their_panels():
    # |x - 0.3| is linear on each side of its kink: a break there leaves two
    # exact panels and no bisection, where one panel bisects toward the kink
    f = lambda x: abs(x - 0.3)
    split = integrate_adaptive(f, 0.0, 1.0, SPEC, breaks=[0.3])
    assert split.converged and split.evaluations == 42
    assert split.value == pytest.approx(0.29, abs=1e-15)
    assert integrate_adaptive(f, 0.0, 1.0, SPEC).evaluations > 42
    # a repeated break, or one on an edge, adds no panel
    assert integrate_adaptive(f, 0.0, 1.0, SPEC,
                              breaks=[0.0, 0.3, 0.3, 1.0]) == split


def test_adaptive_initial_panels_count_against_the_budget():
    # three panels of about 8 periods each on a budget of three: no bisection
    res = integrate_adaptive(lambda x: math.cos(50.0 * x), 0.0, 3.0,
                             QuadratureSpec(max_subdivisions=3),
                             breaks=[1.0, 2.0])
    assert not res.converged
    assert res.evaluations == 63


@pytest.mark.parametrize("breaks", [[0.5, 0.2], [-0.1], [1.5], [math.nan]])
def test_adaptive_refuses_breaks_out_of_order_or_outside_the_range(breaks):
    def never(x):
        raise AssertionError("the integrand was evaluated")

    with pytest.raises(DomainError, match="breaks"):
        integrate_adaptive(never, 0.0, 1.0, SPEC, breaks=breaks)


# --- integrate_semi_infinite ------------------------------------------------

def test_semi_infinite_exponential():
    res = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.magnitude == res.value


def test_semi_infinite_gaussian():
    res = integrate_semi_infinite(lambda x: math.exp(-x * x), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-12)


def test_semi_infinite_shifted_start():
    res = integrate_semi_infinite(lambda x: math.exp(-2 * x), 1.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(math.exp(-2.0) / 2.0, rel=1e-12)


def test_semi_infinite_integrand_that_peaks_late():
    # x^30 e^{-1.1 x} rises over the first cells and peaks at x = 27; the
    # same-sign partial sums must not be extrapolated (Wynn's epsilon would
    # call them converged near 8e11)
    res = integrate_semi_infinite(lambda x: x ** 30 * math.exp(-1.1 * x),
                                  0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(math.factorial(30) / 1.1 ** 31,
                                      rel=1e-12)


@pytest.mark.parametrize("a", [-math.inf, math.inf, math.nan])
def test_semi_infinite_rejects_a_start_not_finite(a):
    # a = -inf returned the value 0 of an empty sum as converged
    with pytest.raises(DomainError):
        integrate_semi_infinite(lambda x: math.exp(-x * x), a, SPEC)


def test_semi_infinite_flags_non_decay():
    res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + 0.001 * x), 0.0, SPEC)
    assert not res.converged


@pytest.mark.parametrize("n", [0, 1, 5, 20, 39])
def test_a_rate_integrates_the_laguerre_moments_in_60_evaluations(n):
    # both rules are exact for x^n e^{-x}, n < 40: they agree, and the
    # 40-node sum is returned without a cell
    res = integrate_semi_infinite(lambda x: x ** n * math.exp(-x), 0.0, SPEC,
                                  rate=1.0)
    assert res.converged and res.evaluations == 60
    assert isinstance(res.value, float)
    assert abs(res.value - math.factorial(n)) <= 1e-15 * math.factorial(n)


def test_a_rate_scales_and_shifts_the_rules():
    # e^{-3 (x - 2)} (x - 2)^4 over (2, inf) is 4! / 3^5; complex values
    # keep their imaginary part
    res = integrate_semi_infinite(
        lambda x: (1 + 2j) * (x - 2.0) ** 4 * math.exp(-3.0 * (x - 2.0)), 2.0,
        SPEC, rate=3.0)
    assert res.converged and res.evaluations == 60
    assert res.value == pytest.approx((1 + 2j) * 24.0 / 3.0 ** 5, rel=1e-15)
    assert res.magnitude == pytest.approx(abs(1 + 2j) * 24.0 / 3.0 ** 5,
                                          rel=1e-15)


@pytest.mark.parametrize("f", [lambda x: math.exp(-x) * math.cos(20.0 * x),
                               lambda x: math.sqrt(x) * math.exp(-x)])
def test_a_rate_the_rules_cannot_meet_falls_back_to_the_same_cells(f):
    # cos(20 x) is too fast for 40 nodes and sqrt(x) is singular at 0, so
    # the rules disagree: the cells give their own result, 60 evaluations
    # dearer
    cells = integrate_semi_infinite(f, 0.0, SPEC)
    res = integrate_semi_infinite(f, 0.0, SPEC, rate=1.0)
    assert (res.value, res.error_estimate, res.magnitude, res.converged) == (
        cells.value, cells.error_estimate, cells.magnitude, cells.converged)
    assert res.evaluations == cells.evaluations + 60


@pytest.mark.parametrize("f", [lambda x: 1.7e308 * math.exp(-0.5 * x),
                               lambda x: math.inf if x < 1.0 else -math.inf])
def test_a_rate_whose_sums_leave_the_float_range_falls_back_to_the_cells(f):
    # the rules' sums overflow, or meet inf - inf, which fsum refuses: the
    # cells give their own result, 60 evaluations dearer
    spec = QuadratureSpec(max_subdivisions=1)
    cells = integrate_semi_infinite(f, 0.0, spec)
    res = integrate_semi_infinite(f, 0.0, spec, rate=1.0)
    assert repr((res.value, res.error_estimate, res.magnitude,
                 res.converged)) == repr((cells.value, cells.error_estimate,
                                          cells.magnitude, cells.converged))
    assert res.evaluations == cells.evaluations + 60


@pytest.mark.parametrize("rate", [0.0, -1.0, math.inf, math.nan])
def test_a_rate_not_finite_and_positive_is_refused(rate):
    with pytest.raises(DomainError, match="rate"):
        integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC, rate=rate)


# --- integrate_oscillatory ----------------------------------------------------

def test_k15_panel_degrees_on_a_shifted_interval():
    # K15 is exact for degree <= 22 and its embedded G7 (center included)
    # for degree <= 13; a mistyped node or weight breaks one of these moments.
    # The Kronrod-only nodes carry Gauss weight 0.0 and add nothing to G7.
    # The K15 weights are larger than K21's, and the float sums of x^j lose
    # up to 1.4e-15 here, so the bound is 4e-15 rather than 1e-15.
    a, b = -0.5, 1.5
    center, halflen = 0.5 * (a + b), 0.5 * (b - a)
    panel = numerics._gk15
    assert panel.points == 15 and numerics._gk21.points == 21
    for j in range(23):
        exact = float((Fraction(b) ** (j + 1) - Fraction(a) ** (j + 1)) / (j + 1))
        kronrod, _, _ = panel(lambda x: x**j, a, b)
        assert abs(kronrod - exact) <= 4e-15 * abs(exact), j
        if j <= 13:
            gauss = halflen * (panel.center_gauss * center ** j + sum(
                wg * ((center - halflen * x) ** j + (center + halflen * x) ** j)
                for x, _, wg in panel.nodes))
            assert abs(gauss - exact) <= 4e-15 * abs(exact), j


def test_half_period_cells_take_k15_and_geometric_cells_k21():
    # on smooth cells one panel each meets the tolerance: 15 evaluations
    # per half-period cell, 21 per geometric cell
    edges = []

    def zero(n):
        edges.append(n)
        return (n - 0.5) * math.pi

    osc = integrate_oscillatory(lambda x: math.exp(-x) * math.cos(x), zero, SPEC)
    assert osc.converged and osc.evaluations == 15 * len(edges)
    geo = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC)
    assert geo.converged and geo.evaluations % 21 == 0 and geo.evaluations % 15 != 0


def test_oscillatory_laplace_cos_grid():
    # spec invariant: int_0^inf e^{-a x} cos(w x) dx = a/(a^2+w^2) to 1e-9
    for a in (0.5, 1.0, 2.0):
        for w in (0.5, 1.0, 2.0):
            res = integrate_oscillatory(
                lambda x, a=a, w=w: math.exp(-a * x) * math.cos(w * x),
                lambda n, w=w: (n - 0.5) * math.pi / w, SPEC)
            assert res.converged
            assert res.value == pytest.approx(a / (a * a + w * w), abs=1e-9)


def test_oscillatory_j0_exponential():
    # int_0^inf e^{-x} J0(x) dx = 1/sqrt(2)
    res = integrate_oscillatory(lambda x: math.exp(-x) * bessel_j(0, x),
                                lambda n: bessel_j_zero(0, n), SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-10)


def test_oscillatory_zero_envelope():
    res = integrate_oscillatory(lambda x: 0.0, lambda n: n * math.pi, SPEC)
    assert res.converged
    assert res.value == 0.0


def test_oscillatory_slow_decay_needs_acceleration():
    # int_0^inf k sin(k r)/(1 + k^2) dk = (pi/2) e^{-r}: conditionally
    # convergent, naive truncation is hopeless
    for r in (0.5, 1.0, 2.0):
        res = integrate_oscillatory(
            lambda k, r=r: k / (1.0 + k * k) * math.sin(k * r),
            lambda n, r=r: n * math.pi / r, SPEC)
        assert res.converged
        assert res.value == pytest.approx(0.5 * math.pi * math.exp(-r), rel=1e-9)


@pytest.mark.parametrize("cell, zero, value, evaluations", [
    (lambda x: math.exp(-0.5 * x) * math.cos(0.5 * x),
     lambda n: (n - 0.5) * math.pi / 0.5, 1.0, 105),
    (lambda x: math.exp(-x) * math.cos(0.5 * x),
     lambda n: (n - 0.5) * math.pi / 0.5, 0.7999999999999997, 120),
    (lambda x: math.exp(-2.0 * x) * math.cos(x),
     lambda n: (n - 0.5) * math.pi, 0.39999999999999986, 120),
    (lambda x: math.exp(-2.0 * x) * math.cos(2.0 * x),
     lambda n: (n - 0.5) * math.pi / 2.0, 0.25, 105),
    (lambda x: math.exp(-x) * bessel_j(0, x),
     lambda n: bessel_j_zero(0, n), 0.7071067811865759, 105),
    (lambda k: k / (1.0 + k * k) * math.sin(0.5 * k),
     lambda n: n * math.pi / 0.5, 0.9527361323707281, 315),
    (lambda k: k / (1.0 + k * k) * math.sin(k),
     lambda n: n * math.pi, 0.5778636748989622, 285),
    (lambda k: k / (1.0 + k * k) * math.sin(2.0 * k),
     lambda n: n * math.pi / 2.0, 0.21258416579283546, 270),
])
def test_oscillatory_values_and_work_are_pinned(cell, zero, value, evaluations):
    # values and work of the cell loop and its epsilon table, to the last bit
    res = integrate_oscillatory(cell, zero, SPEC)
    assert res.converged
    assert (res.value, res.evaluations) == (value, evaluations)


def test_semi_infinite_exponential_value_and_work_are_pinned(monkeypatch):
    # the geometric cells of e^{-x} never alternate: no epsilon table is built
    def refused(sums):
        raise AssertionError("epsilon table built")
    monkeypatch.setattr(numerics, "_EpsilonTable", refused)
    res = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC)
    assert res.converged
    assert (res.value, res.evaluations) == (1.0000000000000002, 126)


def test_geometric_edges_are_sequential_sums_through_the_cell_cap(monkeypatch):
    # every edge is a plus the widths 1, 2, 4, ..., 64, 64, ... added in
    # order, through the last of the 201 cells.  At a start that is not
    # dyadic a closed form a + 2^n - 1 rounds differently (3.0999999999999996
    # for 3.1).
    cells = []

    def cell(f, lo, hi, spec, panel):
        cells.append((lo, hi))
        return IntegralResult(1.0, 0.0, True, 21, 1.0)

    monkeypatch.setattr(numerics, "_adaptive", cell)
    res = integrate_semi_infinite(None, 0.1, SPEC)
    want, x = [], 0.1
    for m in range(201):
        lo, x = x, x + min(2.0 ** m, 64.0)
        want.append((lo, x))
    assert cells == want
    assert cells[1:3] == [(1.1, 3.1), (3.1, 7.1)]
    assert cells[6:8] == [(63.1, 127.1), (127.1, 191.1)]
    assert (res.converged, res.evaluations) == (False, 21 * 201)


def _epsilon_reference(sums):
    # Wynn's epsilon table of sums built from scratch and scanned column by
    # column, oldest entry first, and whether the scan met a degenerate
    # difference (zero, or in an even column at most 1e-16 times the largest
    # |sum| or 4.4e-16 times the older entry) or a non-finite entry, where it
    # stops
    scale = max(abs(s) for s in sums) + 1e-300
    cur = list(sums)
    prev = [0.0] * (len(sums) + 1)
    best = cur[-1]
    col = 0
    while len(cur) >= 2:
        nxt = []
        for j in range(len(cur) - 1):
            diff = cur[j + 1] - cur[j]
            if diff == 0.0 or (col % 2 == 0 and abs(diff) <= max(
                    1e-16 * scale, 4.4e-16 * abs(cur[j]))):
                return (cur[j + 1] if col % 2 == 0 else best), True
            nxt.append(prev[j + 1] + 1.0 / diff)
        if any(not math.isfinite(abs(v)) for v in nxt):
            return best, True
        prev, cur = cur, nxt
        col += 1
        if col % 2 == 0 and cur and math.isfinite(abs(cur[-1])):
            best = cur[-1]
    return best, False


def _random_series(seed, count=100):
    # partial sums of series with random signs and terms shrinking like 0.8^n
    rng = random.Random(seed)
    return [list(itertools.accumulate(rng.choice((-1.0, 1.0)) * rng.gauss(0.0, 1.0)
                                      * 0.8 ** n for n in range(rng.randint(6, 40))))
            for _ in range(count)]


@pytest.mark.parametrize("series", [
    [list(itertools.accumulate((-1.0) ** n / (n + 1) for n in range(201)))],
    [list(itertools.accumulate((-0.6 + 0.3j) ** n / (n + 1) for n in range(201)))],
    _random_series(7),
], ids=["alternating_harmonic", "complex", "random"])
def test_epsilon_table_is_the_whole_table_where_no_entry_degenerates(series):
    # after every added sum, the estimate equals the scan of the whole table
    # of the newest 24 sums, bit for bit, wherever that scan meets no
    # degenerate or non-finite entry
    clean = 0
    for sums in series:
        table = numerics._EpsilonTable(sums[:6])
        for n in range(6, len(sums) + 1):
            if n > 6:
                table.add(sums[n - 1])
            want, degenerate = _epsilon_reference(sums[max(0, n - 24):n])
            if not degenerate:
                assert table.estimate() == want, n
                clean += 1
    assert clean >= 10


def test_epsilon_table_is_exact_on_a_geometric_series():
    # Aitken's delta^2 (column 2) is exact on 2/3 + (-1/2)^n, after which
    # column 2's difference is zero and the diagonal ends there
    sums = [2.0 / 3.0 + (-0.5) ** n for n in range(40)]
    table = numerics._EpsilonTable(sums[:6])
    for s in sums[6:]:
        table.add(s)
        assert table.estimate() == 2.0 / 3.0


def test_epsilon_table_regrows_past_equal_sums():
    # five equal sums, then those of 1 + log 2 = 1 + 1 - 1/2 + 1/3 - ...
    # (est - 1 is exact, so the bounds hold against the true limit): a table
    # that kept the old degeneracy returned the stale 1.0 through the 27th sum
    sums = list(itertools.accumulate(
        [1.0] + [0.0] * 4 + [(-1.0) ** n / (n + 1) for n in range(22)]))
    table = numerics._EpsilonTable(sums[:6])
    for s in sums[6:23]:
        table.add(s)
    assert abs(table.estimate() - 1.0 - math.log(2.0)) <= 2e-14
    for s in sums[23:]:
        table.add(s)
    assert abs(table.estimate() - 1.0 - math.log(2.0)) <= 4e-16


def test_a_nan_sum_gives_an_estimate_the_cell_loop_ignores(monkeypatch):
    table = numerics._EpsilonTable([1.0, -1.0, 2.0, 1.5, 1.75, math.nan])
    assert math.isnan(table.estimate())
    table.add(1.625)  # the diagonal starts again from the new sum
    assert table.estimate() == 1.625
    # cells whose sums turn NaN: the loop stops at the first NaN sum, before
    # any epsilon estimate, and does not report convergence
    terms = [(-1.0) ** n / (n + 1) for n in range(8)]

    def cell(f, lo, hi, spec, panel):
        value = terms[hi - 1] if hi <= 8 else math.nan
        return IntegralResult(value, 0.0, True, 1, magnitude=abs(value))

    monkeypatch.setattr(numerics, "_adaptive", cell)
    res = numerics._integrate_cells(None, itertools.count(0), SPEC, None)
    assert not res.converged
    assert res.evaluations == 9  # the ninth cell's NaN ends the loop


@pytest.mark.parametrize("integrate, evaluations", [
    (lambda f: integrate_semi_infinite(f, 0.0, SPEC), 21),
    (lambda f: integrate_oscillatory(f, lambda n: n * math.pi, SPEC), 15)])
def test_a_non_finite_integrand_ends_the_cell_loop_at_once(integrate,
                                                           evaluations):
    # a NaN or infinite sum cannot be mended by bisection or by a later
    # cell, so the first panel ends the integral
    for f in (lambda x: math.inf if x < 1.0 else -math.inf,
              lambda x: math.nan):
        res = integrate(f)
        assert not res.converged
        assert res.evaluations == evaluations


@pytest.mark.parametrize("budget, value", [(1, 0.030032113197741482),
                                           (2, -0.0076967965795811675)])
def test_a_cell_out_of_budget_leaves_the_tail_unconverged(budget, value):
    # the cells of e^{-x} cos(40 x) stop on their subdivision budget far
    # from the truth 1/1601 = 6.246e-4, and the loop used to report
    # converged=True
    res = integrate_semi_infinite(lambda x: math.exp(-x) * math.cos(40.0 * x),
                                  0.0, QuadratureSpec(max_subdivisions=budget))
    assert res.value == value
    assert not res.converged
    res = integrate_semi_infinite(lambda x: math.exp(-x) * math.cos(40.0 * x),
                                  0.0, SPEC)
    assert res.converged
    assert abs(res.value - 1.0 / 1601.0) <= 1e-12


@pytest.mark.parametrize("error, converged", [(1e-14, True), (1e-12, False)])
def test_a_cell_stopped_at_roundoff_keeps_the_loop_converged(
        monkeypatch, error, converged):
    # an unconverged first cell of value 0.1: an estimate of 1e-14 is at its
    # roundoff (below 1e3 eps |value| = 2.2e-14), where bisection gains
    # nothing; one of 1e-12 is not.  The later cells converge and vanish.
    def cell(f, lo, hi, spec, panel):
        if hi == 1:
            return IntegralResult(0.1, error, False, 1, 0.1)
        return IntegralResult(0.0, 0.0, True, 1, 0.0)

    monkeypatch.setattr(numerics, "_adaptive", cell)
    res = numerics._integrate_cells(None, itertools.count(0), SPEC, None)
    assert (res.value, res.evaluations) == (0.1, 3)
    assert res.converged is converged


def test_the_cell_loop_stops_on_a_negligible_magnitude_not_a_negligible_value(
        monkeypatch):
    # the third cell cancels to 0.0 over an absolute integral of 1.0; a loop
    # that stopped on a negligible signed part (|part| <= 5e-16 |total|)
    # returned 1.5 there.  The fifth cell is zero throughout and ends it.
    cells = {1: (1.0, 1.0), 2: (0.5, 0.5), 3: (0.0, 1.0), 4: (0.25, 0.25)}

    def cell(f, lo, hi, spec, panel):
        value, magnitude = cells.get(hi, (0.0, 0.0))
        return IntegralResult(value, 0.0, True, 1, magnitude)

    monkeypatch.setattr(numerics, "_adaptive", cell)
    res = numerics._integrate_cells(None, itertools.count(0), SPEC, None)
    assert res.converged
    assert (res.value, res.evaluations, res.magnitude) == (1.75, 5, 2.75)


@pytest.mark.xfail(reason="FOUND in CHANGES.md: the cell loop stops on one "
                          "negligible cell before the support has started")
def test_semi_infinite_integrand_that_starts_late():
    # e^{-(x - 10)} on x > 10, zero before: the cells (0, 1), (1, 3) and
    # (3, 7) are negligible, and the loop returns 0.0 as converged after
    # their 63 evaluations
    res = integrate_semi_infinite(
        lambda x: math.exp(10.0 - x) if x > 10.0 else 0.0, 0.0, SPEC)
    assert not res.converged or res.value == pytest.approx(1.0, rel=1e-9)


def test_oscillatory_stall_reported(monkeypatch):
    # the tail walks all 1 + 4 cells unconverged, asking zero(n) once per
    # cell, in order; a loop that took an edge before checking the cell cap
    # would also ask zero(6)
    monkeypatch.setattr(numerics, "_OSCILLATION_CELLS", 4)
    asked = []

    def zero(n):
        asked.append(n)
        return n * math.pi

    res = integrate_oscillatory(lambda k: k / (1.0 + k * k) * math.sin(k),
                                zero, SPEC)
    assert not res.converged
    assert asked == [1, 2, 3, 4, 5]


def test_the_cell_loops_do_not_call_the_public_adaptive_integrator(monkeypatch):
    # every cell is bisected on its loop's own panel rule: the values are the
    # pinned ones with integrate_adaptive refusing every call
    def refused(*args, **kwargs):
        raise AssertionError("integrate_adaptive called")

    monkeypatch.setattr(numerics, "integrate_adaptive", refused)
    res = integrate_semi_infinite(lambda x: math.exp(-x), 0.0, SPEC)
    assert (res.converged, res.value, res.evaluations) == (
        True, 1.0000000000000002, 126)
    res = integrate_oscillatory(lambda x: math.exp(-x) * math.cos(x),
                                lambda n: (n - 0.5) * math.pi, SPEC)
    assert (res.converged, res.value, res.evaluations) == (True, 0.5, 105)


# --- dataclass validation -----------------------------------------------------

def test_quadrature_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(abs_tol=0.0)
    with pytest.raises(DomainError):
        QuadratureSpec(max_subdivisions=0)


@pytest.mark.parametrize("kwargs", [
    {"abs_tol": math.inf}, {"rel_tol": math.inf},
    {"abs_tol": math.inf, "rel_tol": math.inf}, {"abs_tol": math.nan},
    {"rel_tol": -1e-10}, {"max_subdivisions": math.nan},
    {"max_subdivisions": math.inf}, {"max_subdivisions": 2.5},
])
def test_quadrature_spec_refuses_unbounded_budgets(kwargs):
    # an infinite tolerance marks any single panel converged, and a NaN
    # subdivision bound removes the bound
    with pytest.raises(DomainError):
        QuadratureSpec(**kwargs)


def test_integral_result_is_frozen():
    res = IntegralResult(1.0, 0.0, True, 1, 1.0)
    with pytest.raises(Exception):
        res.value = 2.0
