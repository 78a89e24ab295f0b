"""Tests for the pair registry and the catalog of test originals."""

import cmath
import dataclasses
import math

import pytest

from fltrans import pairs
from fltrans.pairs import (
    PAIR_IDS,
    ConstraintError,
    EdgeError,
    UnknownPairError,
    ValidityError,
    catalog_list,
    catalog_lookup,
    eval_fl,
    eval_spacetime,
    lookup,
    make_pair_15,
    registry_rows,
    registry_text,
)
from fltrans.laplace import TimeOriginal, forward_laplace
from fltrans.numerics import DomainError, QuadratureSpec, bessel_j
from fltrans.radial_fourier import edge_distance

SPEC = QuadratureSpec()
EXP1 = catalog_lookup("exp_decay:1")


# --- registry -----------------------------------------------------------------

def test_registry_has_exactly_nine_rows():
    rows = registry_rows()
    assert len(rows) == 9
    assert tuple(r.id for r in rows) == PAIR_IDS


def test_lookup_and_alias():
    assert lookup("2.1").fl_phi(1.0, 2.0) == pytest.approx(math.sqrt(5.0))
    assert lookup("2D-SDT").id == "2.1"
    # row 1.4's argument t - r^2, read through the identity original
    row = lookup("1.4")
    assert row.st_profile(7.0, 2, lambda u: u)(2.0) == pytest.approx(
        3.0 * row.st_profile(7.0, 2, lambda u: 1.0)(2.0))


def test_lookup_unknown_id():
    with pytest.raises(UnknownPairError):
        lookup("9.9")


def test_type_indices_phi_shape():
    # type-1 rows multiply F(s); type-2 rows feed a k-dependent argument
    for row in registry_rows():
        phi_0 = row.fl_phi(0.0, 1.7)
        phi_k = row.fl_phi(2.0, 1.7)
        if row.type_one:
            assert phi_0 == phi_k == pytest.approx(1.7)
        else:
            assert abs(phi_k - phi_0) > 1e-12


def test_branch_sanity_real_positive_inputs():
    # real k >= 0 and real s > 0 give real positive psi and real phi
    for row in registry_rows():
        for d in (1, 2, 3):
            if not row.dim_constraint(d):
                continue
            for k in (0.0, 0.5, 2.0):
                for s in (0.3, 1.0, 4.0):
                    psi = row.fl_psi(k, complex(s), d)
                    phi = row.fl_phi(k, complex(s))
                    assert abs(psi.imag) < 1e-13 * abs(psi)
                    assert psi.real > 0.0
                    assert abs(phi.imag) < 1e-13 * max(1.0, abs(phi))
                    assert phi.real >= 0.0


def test_pair_15_with_a_zero_degenerates_to_12():
    p15 = make_pair_15(0.0)
    p12 = lookup("1.2")
    for d in (1, 2, 3):
        for r, t in ((0.5, 2.0), (1.0, 3.0)):
            # f = 1 compares the prefactors, f(u) = u then the arguments
            for f in (lambda u: 1.0, lambda u: u):
                assert p15.st_profile(t, d, f)(r) == pytest.approx(
                    p12.st_profile(t, d, f)(r), rel=1e-12)
        for k, s in ((0.5, 1.0), (2.0, 0.7)):
            assert p15.fl_psi(k, complex(s), d) == pytest.approx(
                p12.fl_psi(k, complex(s), d), rel=1e-12)


# --- catalog ------------------------------------------------------------------

def test_catalog_contents():
    ids = [o.id for o in catalog_list()]
    for required in ("exp_decay:0.5", "exp_decay:1", "exp_decay:2",
                     "poly_exp:1,1", "poly_exp:2,1", "sine:1", "unit"):
        assert required in ids


def test_catalog_closed_form_values():
    assert catalog_lookup("exp_decay:1").f.eval(0.0) == 1.0
    assert catalog_lookup("exp_decay:1").fhat(1.0) == pytest.approx(0.5)
    assert catalog_lookup("unit").fhat(2.0) == pytest.approx(0.5)
    assert catalog_lookup("poly_exp:1,1").fhat(1.0) == pytest.approx(0.25)


def test_catalog_images_match_numeric_transform():
    # TestOriginal invariant: forward_laplace(f, s) = fhat(s) to 1e-9 on the
    # real axis, and to 1e-12 where Talbot contours pass: left of sigma0,
    # just above image_pole_height (rotated-ray continuation)
    entries = catalog_list() + [catalog_lookup("sine:-2"),
                                catalog_lookup("sine:3")]
    for entry in entries:
        for s in (0.5, 1.0, 3.0):
            if s <= entry.f.sigma0 + 0.1:
                continue
            got = forward_laplace(entry.f, s, SPEC)
            want = entry.fhat(s)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), entry.id
        for left in (0.5, 1.5):
            for sign in (1.0, -1.0):
                s = complex(entry.f.sigma0 - left,
                            sign * (entry.image_pole_height + 1.0))
                got = forward_laplace(entry.f, s, SPEC)
                want = entry.fhat(s)
                assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), \
                    (entry.id, s)


def test_catalog_unknown():
    with pytest.raises(UnknownPairError):
        catalog_lookup("nope:1")


def test_catalog_refuses_an_original_whose_image_check_fails():
    # e^{-50 u} underflows where the damped integrand at sigma0 + 1.1 is
    # not negligible, so its image cannot be confirmed
    with pytest.raises(DomainError, match="catalog original exp_decay:50: "
                                          "numeric transform failed"):
        catalog_lookup("exp_decay:50")


def test_an_original_refuses_a_nan_closed_form_image():
    # abs(got - nan) > tol is False, so a NaN image used to be accepted
    with pytest.raises(DomainError, match="closed-form image disagrees"):
        pairs.TestOriginal(
            "x", TimeOriginal(lambda u: math.exp(-u), sigma0=-1.0),
            lambda s: math.nan)


def test_catalog_builds_each_id_once():
    assert catalog_lookup("exp_decay:1") is catalog_lookup("exp_decay:1")


# --- eval_spacetime -------------------------------------------------------------

def test_eval_spacetime_21_value():
    # d = 2: f(u)/(2 pi u) at the proper time u = sqrt(t^2 - r^2)
    got = eval_spacetime(lookup("2.1"), 2, EXP1, 3.0, 5.0)
    assert got == pytest.approx(math.exp(-4.0) / (8.0 * math.pi), rel=1e-12)
    for r, t in ((0.5, 1.0), (1.0, 4.0)):
        u = math.sqrt(t * t - r * r)
        assert eval_spacetime(lookup("2.1"), 2, EXP1, r, t) == pytest.approx(
            math.exp(-u) / (2.0 * math.pi * u), rel=1e-12)


def test_eval_spacetime_21_outside_support():
    assert eval_spacetime(lookup("2.1"), 2, EXP1, 5.0, 3.0) == 0.0


def test_eval_spacetime_11_value():
    got = eval_spacetime(lookup("1.1"), 3, EXP1, 1.0, 2.0)
    assert got == pytest.approx(math.exp(-1.0) / (4.0 * math.pi), rel=1e-12)


def test_eval_spacetime_24_two_branches():
    # both roots t -+ sqrt(t^2-r^2) contribute
    r, t, d = 1.0, 2.0, 2
    q = math.sqrt(t * t - r * r)
    want = (math.exp(-(t - q)) + math.exp(-(t + q))) / (2 * math.pi * q)
    got = eval_spacetime(lookup("2.4"), d, EXP1, r, t)
    assert got == pytest.approx(want, rel=1e-12)


def _light_cone_reference(mpmath, row_id, d, r, t):
    # regular parts (the side times sqrt(t^2 - r^2)) of rows 2.1 and 2.4
    # with f(u) = e^{-u} at the float point (r, t), at 50 digits so that
    # t - sqrt(t^2 - r^2) keeps 30 of them at r = 1e-9 t
    with mpmath.workdps(50):
        r, t = mpmath.mpf(r), mpmath.mpf(t)
        q = mpmath.sqrt(t * t - r * r)
        power = 1 - mpmath.mpf(d) / 2
        scale = (2 * mpmath.pi) ** (-mpmath.mpf(d) / 2)
        if row_id == "2.1":
            return scale * (t + q) ** power * mpmath.exp(-q)
        return sum(scale * u ** power * mpmath.exp(-u) for u in (t - q, t + q))


def test_row_24_minus_root_near_the_origin():
    # u_- = t - sqrt(t^2 - r^2) cancels as r -> 0: it used to raise
    # ZeroDivisionError at r = 1e-9 and be 33% off at r = 1e-8
    mpmath = pytest.importorskip("mpmath")
    row = lookup("2.4")
    for r in (1e-9, 1e-8, 1e-6):
        want = _light_cone_reference(mpmath, "2.4", 3, r, 1.0)
        got = row.st_profile(1.0, 3, EXP1.f.eval)(r)
        assert abs(got - want) <= 1e-15 * abs(want), r


def test_light_cone_rows_near_the_edge():
    # q = sqrt((t - r)(t + r)) keeps its digits at r = t(1 - 1e-8), where
    # t*t - r*r loses half of them
    mpmath = pytest.importorskip("mpmath")
    for row_id in ("2.1", "2.4"):
        for d in (1, 2, 3):
            for t in (0.5, 1.0, 3.0):
                r = t * (1.0 - 1e-8)
                want = _light_cone_reference(mpmath, row_id, d, r, t)
                got = lookup(row_id).st_profile(t, d, EXP1.f.eval)(r)
                assert abs(got - want) <= 1e-14 * abs(want), (row_id, d, t)


def test_eval_spacetime_dimension_constraint():
    with pytest.raises(ConstraintError):
        eval_spacetime(lookup("1.3"), 2, EXP1, 0.5, 2.0)
    with pytest.raises(ConstraintError):
        eval_spacetime(lookup("1.1"), 1, EXP1, 0.5, 2.0)
    with pytest.raises(ConstraintError):
        eval_spacetime(lookup("1.3"), 1, EXP1, 0.5, 2.0)


def test_row_13_holds_from_d_3():
    assert "1.3  d >= 3  " in registry_text()
    with pytest.raises(ConstraintError, match=r"requires an integer d >= 3"):
        eval_fl(lookup("1.3"), 1, EXP1, 1.0, 1.0)


@pytest.mark.parametrize("d", [0, 2.5, math.nan, math.inf])
def test_non_integral_or_nonpositive_dimension_refused(d):
    for row in registry_rows():
        with pytest.raises(ConstraintError, match=r"requires an integer d"):
            eval_fl(row, d, EXP1, 1.0, 1.0)
        with pytest.raises(ConstraintError):
            row.fl_profile(1.0, d, EXP1.fhat)
        with pytest.raises(ConstraintError):
            eval_spacetime(row, d, EXP1, 0.5, 2.0)


@pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, -1.0])
def test_eval_fl_refuses_a_wavenumber_not_finite_and_nonnegative(k):
    for row in registry_rows():
        with pytest.raises(DomainError, match="wavenumber"):
            eval_fl(row, 3, EXP1, k, 1.0)
        with pytest.raises(DomainError, match="wavenumber"):
            row.fl_profile(k, 3, EXP1.fhat)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf,
                               complex(1.0, math.inf), complex(1.0, math.nan)])
def test_eval_fl_refuses_a_point_not_finite(s):
    # at k = 1 in d = 2, row 1.2 returned nan+nanj at 1 + nan i and raised
    # a bare OverflowError at inf, 2.1 returned nan+nanj at inf and 2.2 at
    # 1 + inf i; d = 3 admits every row
    for row in registry_rows():
        with pytest.raises(DomainError, match="s must be finite"):
            eval_fl(row, 3, EXP1, 1.0, s)


def test_eval_spacetime_edge_refused():
    with pytest.raises(EdgeError):
        eval_spacetime(lookup("2.1"), 2, EXP1, 2.0, 2.0)
    with pytest.raises(EdgeError):
        eval_spacetime(lookup("2.4"), 2, EXP1, 2.0, 2.0000001)


@pytest.mark.parametrize("row_id, r, t", [("2.1", 0.0, 0.0005),
                                          ("2.1", 0.0002, 0.0009),
                                          ("2.4", 0.0002, 0.0009)])
def test_light_cone_rows_evaluate_below_t_one_thousandth(row_id, r, t):
    # the edge margin was 1e-3 absolute below t = 1, so the whole support
    # [0, t) of rows 2.1 and 2.4 counted as the edge at t <= 1e-3
    row = lookup(row_id)
    want = row.st_profile(t, 3, EXP1.f.eval)(r) / edge_distance(r, t)
    assert eval_spacetime(row, 3, EXP1, r, t) == want


@pytest.mark.parametrize("row_id, value", [
    ("1.1", None), ("1.2", None), ("1.3", None), ("1.4", 0.06607),
    ("1.5", 0.01652), ("2.1", 0.01652), ("2.2", None), ("2.3", 0.0),
    ("2.4", None)])
def test_eval_spacetime_at_the_origin(row_id, value):
    # the rows singular at r = 0 raised a bare ZeroDivisionError there
    if value is None:
        with pytest.raises(EdgeError, match="origin"):
            eval_spacetime(lookup(row_id), 3, EXP1, 0.0, 1.0)
    else:
        got = eval_spacetime(lookup(row_id), 3, EXP1, 0.0, 1.0)
        assert got == pytest.approx(value, abs=5e-6)


@pytest.mark.parametrize("row_id", PAIR_IDS)
def test_eval_fl_at_s_zero_is_refused(row_id):
    # every image is singular at s = 0, at k = 0 and k = 1 alike, where
    # eval_fl raised a bare ZeroDivisionError: on the cut of sqrt(s^2 + k^2),
    # from a power of zero, or in phi (rows 2.2 and 2.4)
    for k in (0.0, 1.0):
        with pytest.raises(ValidityError, match=f"pair {row_id} is singular "
                                                r"at s = 0j"):
            eval_fl(lookup(row_id), 3, EXP1, k, 0.0)


@pytest.mark.parametrize("pid", ["1.2", "2.1", "2.2"])
@pytest.mark.parametrize("r, t", [(math.nan, 1.0), (0.5, math.nan),
                                  (-0.5, 1.0), (0.5, math.inf),
                                  (math.inf, 1.0), (0.5, -math.inf)])
def test_eval_spacetime_refuses_a_point_not_finite(pid, r, t):
    # these returned 0.0 (rows 1.2 and 2.2) or, on row 2.1 at t = inf, an
    # EdgeError that blamed the light cone
    with pytest.raises(DomainError):
        eval_spacetime(lookup(pid), 2, EXP1, r, t)


@pytest.mark.parametrize("t", [0.0, -1.0, -0.0005])
def test_eval_spacetime_is_zero_before_time_zero(t):
    # near the light cone's apex, r and t within 1e-3, rows 2.1 and 2.4
    # raised EdgeError
    for row in registry_rows():
        for r in (0.5, 0.0, 0.0005):
            assert eval_spacetime(row, 3, EXP1, r, t) == 0.0, (row.id, r)


def test_eval_spacetime_23_reversed_support():
    # entry 2.3 lives at r > t
    pair = lookup("2.3")
    assert eval_spacetime(pair, 2, EXP1, 0.5, 2.0) == 0.0
    assert eval_spacetime(pair, 2, EXP1, 2.0, 0.5) > 0.0


# --- the base pair through row 2.1 ---------------------------------------------

def _row_21_base_image(k, u):
    # row 2.1 at d = 2 for f = delta(. - u): exp(-u q)/q at q = sqrt(s^2 + k^2)
    return lookup("2.1").fl_profile(k, 2, lambda p: cmath.exp(-u * p))


def test_row_21_image_of_a_shell_is_the_base_pair_closed_form():
    for k, u, want in ((1.0, 0.5, math.exp(-0.5 * math.sqrt(2.0)) / math.sqrt(2.0)),
                       (0.0, 1.0, math.exp(-1.0)),
                       (1.0, 0.0, 1.0 / math.sqrt(2.0))):
        got = _row_21_base_image(k, u)(1.0)
        assert abs(got - want) <= 1e-12 * want, (k, u)


def row_21_base_identity_error(k, u, s):
    """Relative gap of J0(k sqrt(t^2 - u^2)) Theta(t - u) <-> exp(-u q)/q at s.

    The image is row 2.1's; the time side is exp(-s u) times the transform
    of the time-shifted, smooth original J0(k sqrt(tau (tau + 2u))).
    """
    want = _row_21_base_image(k, u)(s)
    shifted = TimeOriginal(
        lambda tau: bessel_j(0, k * math.sqrt(tau * (tau + 2.0 * u))))
    got = math.exp(-s * u) * forward_laplace(shifted, s, SPEC)
    return abs(got - want) / abs(want)


def test_row_21_image_of_a_shell_is_the_laplace_transform_of_its_original():
    for k in (0.0, 0.5, 1.0, 2.0):
        for u in (0.0, 0.5, 1.0, 2.0, 5.0, 10.0):
            for s in (0.5, 1.0, 2.0, 4.0):
                assert row_21_base_identity_error(k, u, s) <= 1e-8, (k, u, s)


# --- eval_fl ---------------------------------------------------------------------

def test_eval_fl_21():
    # d = 2: fhat(q)/q at q = sqrt(s^2 + k^2)
    got = eval_fl(lookup("2.1"), 2, EXP1, 1.0, 1.0)
    want = 1.0 / (math.sqrt(2.0) * (math.sqrt(2.0) + 1.0))
    assert got.real == pytest.approx(want, rel=1e-12)
    assert abs(got.imag) < 1e-15
    for k, s in ((0.5, 2.0), (2.0, 0.8)):
        q = math.sqrt(s * s + k * k)
        assert eval_fl(lookup("2.1"), 2, EXP1, k, s) == pytest.approx(
            1.0 / ((q + 1.0) * q), rel=1e-12)
    unit = catalog_lookup("unit")
    assert eval_fl(lookup("2.1"), 2, unit, 0.0, 1.0).real == pytest.approx(1.0)


def test_eval_fl_22():
    got = eval_fl(lookup("2.2"), 2, EXP1, 2.0, 1.0)
    assert got.real == pytest.approx(0.2, rel=1e-12)


def test_eval_fl_11():
    got = eval_fl(lookup("1.1"), 3, EXP1, 1.0, 1.0)
    assert got.real == pytest.approx(0.25, rel=1e-12)


def test_eval_fl_validity_error():
    # left of the abscissa, Re phi < sigma0: the literal Laplace-integral
    # reading breaks down and eval_fl refuses; the row's bound image
    # evaluates the closed-form continuation there
    s = complex(-3.0, 0.5)
    with pytest.raises(ValidityError):
        eval_fl(lookup("2.1"), 2, EXP1, 1.0, s)
    val = lookup("2.1").fl_profile(1.0, 2, EXP1.fhat)(s)
    assert abs(val) > 0.0


def test_eval_fl_is_the_bound_image_inside_the_abscissa():
    # eval_fl evaluates fl_profile, bit for bit, where Re phi > sigma0
    for row in registry_rows():
        d = max(row.min_dim, 2)
        for k, s in ((0.0, 1.5), (1.0, complex(2.0, 0.7)), (2.5, 3.0)):
            want = row.fl_profile(k, d, EXP1.fhat)(complex(s))
            assert eval_fl(row, d, EXP1, k, s) == want, (row.id, k, s)


def test_type_one_is_derived_from_the_time_argument():
    assert [row.id for row in registry_rows() if row.type_one] == [
        "1.1", "1.2", "1.3", "1.4", "1.5"]
    for row in registry_rows():
        assert row.type_one == (row.fl_phi(2.0, 1.7) == 1.7), row.id
    retyped = dataclasses.replace(lookup("1.2"), fl_phi=lambda k, s: s + k)
    assert not retyped.type_one
    with pytest.raises(AttributeError):
        lookup("1.2").type_one = False


def test_registry_text_lists_all_rows():
    text = registry_text()
    for pid in PAIR_IDS:
        assert pid in text


@pytest.mark.parametrize("a", [-1.0, math.nan, math.inf])
def test_pair_15_refuses_a_shift_not_finite_and_nonnegative(a):
    # nan gave eval_spacetime 0.0 and inf gave NaN
    with pytest.raises(DomainError):
        make_pair_15(a)


def test_catalog_ids_resolve_to_themselves():
    for original in catalog_list():
        assert catalog_lookup(original.id).id == original.id
    assert catalog_lookup("poly_exp").id == "poly_exp:1,1"
    assert catalog_lookup("poly_exp:3").id == "poly_exp:3,1"
    assert catalog_lookup("poly_exp:2.0,0.5").id == "poly_exp:2,0.5"


def test_unknown_substitution_rejected():
    with pytest.raises(ValueError):
        dataclasses.replace(lookup("2.1"), substitution="w^3")
