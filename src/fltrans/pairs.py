"""Registry of simultaneous Fourier-Laplace double-transform pairs.

Each entry relates a space-time original P(r, t) f(A(r, t)) Theta(...) to
its combined Fourier(space)-Laplace(time) image psi(k, s) fhat(phi(k, s)),
for spherically symmetric functions in d dimensions and an arbitrary
analytic f with Laplace image fhat.  A row states its space-time side as
one function st_profile(t, d, f) that binds the factors of (t, d) once and
returns the radial profile r -> P f(A); its support is the separate
radial_range.  Row 2.1 at d = 2 follows from
the base Laplace pair J0(k sqrt(t^2 - u^2)) Theta(t - u) <->
exp(-u sqrt(s^2 + k^2)) / sqrt(s^2 + k^2), integrated against f(u) du.
At f = delta(u - u0), fhat(p) = exp(-u0 p), the row's image is that
pair's right side, which tests/test_pairs.py checks against a forward
Laplace quadrature; verify.verify_all checks the row.

Type-1 rows keep phi's default s and multiply fhat(s) by a function of
(k, s); type-2 rows hand fhat a genuinely k-dependent argument.  A row's
fl_profile binds its image.  All square roots and fractional
powers take principal branches through sqrt_s2k2, so the images evaluate
correctly on an inversion contour that encloses the branch segment.

Entry 2.4 sums two space-time branches in its profile: its argument
map u(t, r) = t -+ sqrt(t^2 - r^2) has two roots inside the light cone,
and both contribute.

A row also carries what the radial quadrature of its space-time side
needs.  radial_range(t) = (lo, hi) is the r-support at time t (hi may be
inf).  substitution names the change of variable that regularizes the
row's integrable singularity, one of radial_fourier.SUBSTITUTIONS:
"none"; "origin", r = w^2, for fractional powers of r at r = 0;
"light_cone" for a side R(r, t)/sqrt(t^2 - r^2) on the support (0, t),
whose weight 1/sqrt(t^2 - r^2) the quadrature owns: the profile states R.
min_dim is the least dimension of the row: it holds, and its space-time
side is radially integrable, in every integer d >= min_dim.  admits(d, f)
states which (dimension, original) pairs the row is verified with.  The
verifier reads only these fields, so adding a row touches only this
module.

The catalog of test originals pairs each f with its closed-form image,
which a TestOriginal confirms numerically once, when it is built.
catalog_lookup parses the id grammar "name:param1,param2" and is the one
way to build an original; catalog_list names its seven by id.  One
constructor states u^n e^{-a u} <-> n!/(s + a)^(n + 1): poly_exp:n,a,
exp_decay:a (n = 0) and unit (n = 0, a = 0); sine:a is the other.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .laplace import LaplaceError, TimeOriginal, forward_laplace, sqrt_s2k2
from .numerics import DomainError, QuadratureSpec, _nonnegative
from .radial_fourier import SUBSTITUTIONS, edge_distance, sphere_measure


class UnknownPairError(KeyError):
    """Requested id is not one of the registry tags."""


class ConstraintError(DomainError):
    """Dimension outside the row's validity constraint."""


class EdgeError(ValueError):
    """Pointwise evaluation requested on a singular support edge."""


class ValidityError(ValueError):
    """Re phi(k, s) does not exceed the original's growth abscissa."""


_EDGE_MARGIN = 1e-3


def _time_argument(k: float, s: complex) -> complex:
    return complex(s)


@dataclass(frozen=True)
class PairDescriptor:
    """One registry row in reduced form.

    st_profile(t, d, f) binds the space-time side at time t in dimension d
    for the scalar original u -> f(u): it computes the factors of (t, d)
    once and returns r -> P(r, t) * f(A(r, t)), without support or edge
    checks.  The profile is meant for r in radial_range(t), and entry 2.4
    sums both argument roots in it; a light_cone row's profile omits
    1/sqrt(t^2 - r^2).
    substitution steers the radial quadrature (see the module docstring).
    fl_psi/fl_phi give the image psi(k, s, d) * fhat(phi(k, s)) that
    fl_profile binds; fl_phi defaults to s and type_one, derived from it,
    is False for type-2 rows.  min_dim and admits(d, f) state the row's
    dimensions and the originals it is verified with.
    """

    id: str
    st_profile: Callable[[float, int, Callable[[float], float]],
                         Callable[[float], float]]
    radial_range: Callable[[float], tuple[float, float]]
    fl_psi: Callable[[float, complex, int], complex]
    st_text: str
    fl_text: str
    note: str
    fl_phi: Callable[[float, complex], complex] = _time_argument
    substitution: str = "none"
    min_dim: int = 1

    def __post_init__(self) -> None:
        if self.substitution not in SUBSTITUTIONS:
            raise ValueError(f"pair {self.id}: unknown substitution "
                             f"{self.substitution!r}")

    @property
    def type_one(self) -> bool:
        """Whether fhat sees the time argument s alone (fl_phi's default)."""
        return self.fl_phi is _time_argument

    def fl_profile(self, k: float, d: int, fhat: Callable[[complex], complex]
                   ) -> Callable[[complex], complex]:
        """s -> psi(k, s, d) * fhat(phi(k, s)), with d and k checked once.

        Allows Re phi <= sigma0 (eval_fl does not): inversion contours
        evaluate fhat's closed-form continuation there."""
        _check_dim(self, d)
        _nonnegative("wavenumber", k)
        phi, psi = self.fl_phi, self.fl_psi

        def image(s: complex) -> complex:
            arg = phi(k, s)
            return psi(k, s, d) * fhat(arg)
        return image

    def dim_constraint(self, d: float) -> bool:
        """Whether d is an integer >= min_dim (refuses NaN and inf)."""
        return d >= self.min_dim and d % 1 == 0

    def admits(self, d: float, f: TestOriginal) -> bool:
        """Whether the row is verified in dimension d against original f."""
        # type-2 arguments phi(k, s) approach 0 or the whole left half-plane on
        # the contour; originals must decay (sigma0 < 0) for fhat(phi) to stay
        # pole-free there
        return self.dim_constraint(d) and (self.type_one or f.f.sigma0 < 0.0)


@dataclass(frozen=True)
class TestOriginal:
    """Analytic test function f with its closed-form Laplace image fhat.

    Built only if fhat matches forward_laplace of f to 1e-9 at sigma0 + 1.1
    and sigma0 + 2.6; a mismatch or a failed transform is a DomainError."""

    id: str
    f: TimeOriginal
    fhat: Callable[[complex], complex]

    def __post_init__(self) -> None:
        for s in (self.f.sigma0 + 1.1, self.f.sigma0 + 2.6):
            try:
                got = forward_laplace(self.f, s, QuadratureSpec())
            except (LaplaceError, ArithmeticError) as exc:
                raise DomainError(f"catalog original {self.id}: numeric "
                                  f"transform failed at s={s}: {exc}") from exc
            want = self.fhat(s)
            if not abs(got - want) <= 1e-9 * max(1.0, abs(want)):
                raise DomainError(
                    f"catalog original {self.id}: closed-form image disagrees "
                    f"with the numeric transform at s={s} ({got} vs {want})")

    @property
    def image_pole_height(self) -> float:
        """f.imag_growth, which bounds |Im s| of fhat's singularities.

        For |f(z)| <= C exp(sigma0 Re z + g |Im z|) the Laplace integral
        converges on the ray t = -i tau when Im s > g and on t = +i tau
        when Im s < -g, so fhat is analytic off |Im s| <= g.  Inversion
        contours are raised above this height.
        """
        return self.f.imag_growth


# --------------------------------------------------------------------------
# registry construction
# --------------------------------------------------------------------------

def _retarded_psi(k: float, s: complex, d: int) -> complex:
    # (s + sqrt(s^2 + k^2))^(1 - d/2) / sqrt(s^2 + k^2): rows 1.2, 2.1, 2.3
    root = sqrt_s2k2(s, k)
    return (s + root) ** (1 - 0.5 * d) / root


def _pair_11() -> PairDescriptor:
    def profile(t, d, f):
        c = math.pi * sphere_measure(d - 1) / (2.0 * math.pi) ** d

        def value(r):
            return c / r * f(t - r)
        return value

    return PairDescriptor(
        id="1.1",
        min_dim=2,
        st_profile=profile,
        radial_range=lambda t: (0.0, t),
        substitution="origin",
        fl_psi=lambda k, s, d: sqrt_s2k2(s, k) ** (1 - d),
        st_text="pi*S_(d-1)/(2*pi)^d * f(t-r)/r * Theta(t-r)",
        fl_text="(s^2+k^2)^((1-d)/2) * F(s)",
        note="wave shell against f(t-r)",
    )


def _pair_12() -> PairDescriptor:
    def profile(t, d, f):
        two_pi, p = 2.0 * math.pi, -0.5 * d

        def value(r):
            return (two_pi * r) ** p * f(t - r)
        return value

    return PairDescriptor(
        id="1.2",
        st_profile=profile,
        radial_range=lambda t: (0.0, t),
        substitution="origin",
        fl_psi=_retarded_psi,
        st_text="(2*pi*r)^(-d/2) * f(t-r) * Theta(t-r)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2)/sqrt(s^2+k^2) * F(s)",
        note="retarded kernel, half-power radial weight",
    )


def _pair_13() -> PairDescriptor:
    def profile(t, d, f):
        c, p = (0.5 * d - 1.0) / (2.0 * math.pi) ** (0.5 * d), 0.5 * d + 1.0

        def value(r):
            return c / r ** p * f(t - r)
        return value

    return PairDescriptor(
        id="1.3",
        min_dim=3,
        st_profile=profile,
        radial_range=lambda t: (0.0, t),
        substitution="origin",
        fl_psi=lambda k, s, d: (s + sqrt_s2k2(s, k)) ** (1 - 0.5 * d),
        st_text="(d/2-1)/(2*pi)^(d/2) * f(t-r)/r^(d/2+1) * Theta(t-r)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2) * F(s)",
        note="d=1 space-time side is not radially integrable",
    )


def _pair_14() -> PairDescriptor:
    def profile(t, d, f):
        c = math.pi ** (-0.5 * d)

        def value(r):
            return c * f(t - r * r)
        return value

    return PairDescriptor(
        id="1.4",
        st_profile=profile,
        radial_range=lambda t: (0.0, math.sqrt(t)),
        fl_psi=lambda k, s, d: s ** (-0.5 * d) * cmath.exp(-k * k / (4.0 * s)),
        st_text="pi^(-d/2) * f(t-r^2) * Theta(t-r^2)",
        fl_text="s^(-d/2) * exp(-k^2/(4s)) * F(s)",
        note="diffusive-front argument t - r^2",
    )


def make_pair_15(a: float) -> PairDescriptor:
    """Entry 1.5 with its shift parameter, finite and >= 0 (a = 0 is 1.2)."""
    _nonnegative("entry 1.5 shift a", a)

    def profile(t, d, f):
        c, p = (2.0 * math.pi) ** (-0.5 * d), 1 - 0.5 * d
        a2, t_a = a * a, t + a

        def value(r):
            root = math.sqrt(r * r + a2)
            return c * (a + root) ** p / root * f(t_a - root)
        return value

    def psi(k, s, d):
        sq = sqrt_s2k2(s, k)
        return cmath.exp(-a * (sq - s)) * (s + sq) ** (1 - 0.5 * d) / sq

    return PairDescriptor(
        id="1.5",
        st_profile=profile,
        radial_range=lambda t: (0.0, math.sqrt(t * t + 2.0 * a * t)),
        fl_psi=psi,
        st_text="(2*pi)^(-d/2)*(a+sqrt(r^2+a^2))^(1-d/2)/sqrt(r^2+a^2)"
                " * f(t+a-sqrt(r^2+a^2)) * Theta(...)",
        fl_text="exp(-a*(sqrt(s^2+k^2)-s)) * (s+sqrt(s^2+k^2))^(1-d/2)"
                "/sqrt(s^2+k^2) * F(s)",
        note=f"shifted light cone, a = {a:g}",
    )


def _pair_21() -> PairDescriptor:
    def profile(t, d, f):
        c, p = (2.0 * math.pi) ** (-0.5 * d), 1 - 0.5 * d

        def value(r):
            q = edge_distance(r, t)
            return c * (t + q) ** p * f(q)
        return value

    return PairDescriptor(
        id="2.1",
        st_profile=profile,
        radial_range=lambda t: (0.0, t),
        substitution="light_cone",
        fl_psi=_retarded_psi,
        fl_phi=lambda k, s: sqrt_s2k2(s, k),
        st_text="(2*pi)^(-d/2)*(t+sqrt(t^2-r^2))^(1-d/2)/sqrt(t^2-r^2)"
                " * f(sqrt(t^2-r^2)) * Theta(t-r)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2)/sqrt(s^2+k^2) * F(sqrt(s^2+k^2))",
        note="proper-time argument; d=2 member is the symmetric special form",
    )


def _pair_22() -> PairDescriptor:
    def profile(t, d, f):
        c, p = (2.0 * math.pi) ** (-0.5 * d), 2 - d
        w, four_t = (2.0 * t) ** (0.5 * d - 2.0), 4.0 * t

        def value(r):
            return c * r ** p * w * f(r * r / four_t)
        return value

    return PairDescriptor(
        id="2.2",
        st_profile=profile,
        radial_range=lambda t: (0.0, math.inf),
        fl_psi=lambda k, s, d: s ** (-0.5 * d),
        fl_phi=lambda k, s: complex(k * k) / s,
        st_text="(2*pi)^(-d/2) * r^(2-d)/(2t)^(2-d/2) * f(r^2/(4t))",
        fl_text="s^(-d/2) * F(k^2/s)",
        note="self-similar diffusion argument; support is all t > 0",
    )


def _pair_23() -> PairDescriptor:
    def profile(t, d, f):
        c, p = (2.0 * math.pi) ** (-0.5 * d), 2 - d
        w, t2, two_t = t ** (0.5 * d - 2.0), t * t, 2.0 * t

        def value(r):
            return c * r ** p * w * f((r * r - t2) / two_t)
        return value

    return PairDescriptor(
        id="2.3",
        st_profile=profile,
        radial_range=lambda t: (t, math.inf),
        fl_psi=_retarded_psi,
        fl_phi=lambda k, s: sqrt_s2k2(s, k) - s,
        st_text="(2*pi)^(-d/2) * r^(2-d)/t^(2-d/2) * f((r^2-t^2)/(2t))"
                " * Theta(r-t)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2)/sqrt(s^2+k^2) * F(sqrt(s^2+k^2)-s)",
        note="support outside the light cone; needs a decaying f",
    )


def _pair_24() -> PairDescriptor:
    # Both roots u_-+ = t -+ sqrt(t^2 - r^2) of the argument map contribute.
    # The cited table prints this row with a single branch and the image
    # argument s + k^2/(4 s); that version fails the k = 0 consistency
    # check int f != int f * w/(t+w), so the registry stores the two-branch
    # form with phi = (s^2 + k^2)/(2 s), which passes mixed-domain
    # verification in d = 1, 2, 3.
    # The minus root is computed as u_- = r^2/(t + q), q = sqrt(t^2 - r^2),
    # since t - q cancels near the origin.
    def profile(t, d, f):
        c, p = (2.0 * math.pi) ** (-0.5 * d), 1 - 0.5 * d

        def value(r):
            q = edge_distance(r, t)
            minus, plus = r * r / (t + q), t + q
            return c * (minus ** p * f(minus) + plus ** p * f(plus))
        return value

    return PairDescriptor(
        id="2.4",
        st_profile=profile,
        radial_range=lambda t: (0.0, t),
        substitution="light_cone",
        fl_psi=lambda k, s, d: s ** (-0.5 * d),
        fl_phi=lambda k, s: (s * s + k * k) / (2.0 * s),
        st_text="(2*pi)^(-d/2)/sqrt(t^2-r^2) * [u^(1-d/2) f(u)]_(u=t-+sqrt(t^2-r^2))"
                " summed over both roots, Theta(t-r)",
        fl_text="s^(-d/2) * F((s^2+k^2)/(2s))",
        note="two argument roots inside the cone (corrected two-branch row)",
    )


_REGISTRY = {row.id: row for row in (
    _pair_11(), _pair_12(), _pair_13(), _pair_14(), make_pair_15(1.0),
    _pair_21(), _pair_22(), _pair_23(), _pair_24())}
PAIR_IDS = tuple(_REGISTRY)


def lookup(pair_id: str) -> PairDescriptor:
    """Registry row by tag; "2D-SDT" is an alias for row 2.1 (meant at d=2)."""
    key = "2.1" if pair_id == "2D-SDT" else pair_id
    try:
        return _REGISTRY[key]
    except KeyError:
        raise UnknownPairError(
            f"unknown pair id {pair_id!r}; valid ids: {', '.join(PAIR_IDS)}"
        ) from None


# --------------------------------------------------------------------------
# catalog of test originals with closed-form images
# --------------------------------------------------------------------------

def _exp_poly(original_id: str, n: int, a: float) -> TestOriginal:
    # sigma0 is 0.0 - a, not -a, so that unit's stays +0.0
    fact = math.factorial(n)
    return TestOriginal(
        id=original_id,
        f=TimeOriginal(lambda u: u ** n * math.exp(-a * u), sigma0=0.0 - a,
                       eval_complex=lambda z: z ** n * cmath.exp(-a * z)),
        fhat=lambda s: fact / (s + a) ** (n + 1),
    )


def _sine(a: float) -> TestOriginal:
    return TestOriginal(
        id=f"sine:{a:g}",
        f=TimeOriginal(lambda u: math.sin(a * u), sigma0=0.0,
                       imag_growth=abs(a),
                       eval_complex=lambda z: cmath.sin(a * z)),
        fhat=lambda s: a / (s * s + a * a),
    )


# catalog originals by name: constructor and default parameters
_CATALOG = {
    "exp_decay": (lambda a: _exp_poly(f"exp_decay:{a:g}", 0, a), (1.0,)),
    "poly_exp": (lambda n, a: _exp_poly(f"poly_exp:{n},{a:g}", n, a),
                 (1, 1.0)),
    "sine": (_sine, (1.0,)),
    "unit": (lambda: _exp_poly("unit", 0, 0.0), ()),
}


def catalog_list() -> list[TestOriginal]:
    """Built-in test originals (decaying exponentials first)."""
    return [catalog_lookup(original_id) for original_id in (
        "exp_decay:0.5", "exp_decay:1", "exp_decay:2", "poly_exp:1,1",
        "poly_exp:2,1", "sine:1", "unit")]


@functools.lru_cache
def catalog_lookup(original_id: str) -> TestOriginal:
    """Resolve a "name" or "name:param1,param2" tag into a catalog entry.

    Raises UnknownPairError for an unknown name, a parameter that is not a
    finite number, more parameters than the original takes, or an integer
    parameter (one whose default is an int, as poly_exp's order) that is
    not an integer >= 0; DomainError if the image check fails (TestOriginal).
    Memoized, so each of the 128 most recent ids is built and checked once.
    """
    name, _, params = original_id.partition(":")
    if name not in _CATALOG:
        raise UnknownPairError(f"unknown catalog original {original_id!r}")
    make, defaults = _CATALOG[name]
    try:
        args = [float(p) for p in params.split(",")] if params else []
    except ValueError:  # fails the finiteness test below
        args = [math.nan]
    if len(args) > len(defaults) or not all(
            math.isfinite(x) and (not isinstance(default, int)
                                  or (x >= 0.0 and x.is_integer()))
            for x, default in zip(args, defaults)):
        raise UnknownPairError(
            f"bad parameters in catalog original {original_id!r}; ids are "
            "exp_decay:a, poly_exp:n,a (integer n >= 0), sine:a and unit, "
            "with finite numbers a, each optional")
    return make(*(type(default)(x) for x, default in zip(args, defaults)),
                *defaults[len(args):])


# --------------------------------------------------------------------------
# evaluation of the two sides
# --------------------------------------------------------------------------

def _check_dim(pair: PairDescriptor, d: int) -> None:
    if not pair.dim_constraint(d):
        raise ConstraintError(f"pair {pair.id} requires an integer "
                              f"d >= {pair.min_dim}, got d = {d}")


def eval_spacetime(pair: PairDescriptor, d: int, f: TestOriginal,
                   r: float, t: float) -> float:
    """pair.st_profile(t, d, f)(r) on support, over q for a light_cone row.

    Zero at a finite t <= 0, the light cone's apex included, and outside
    radial_range(t).  Refuses, with DomainError, a t that is not finite
    and an r that is not finite and >= 0; at t > 0 refuses points on the
    light-cone edge (|t - r| below a small margin) of rows singular
    there; quadrature callers integrate across such edges under the
    weight of the substitution instead.
    """
    _check_dim(pair, d)
    if not (-math.inf < t < math.inf and 0.0 <= r < math.inf):  # and NaN
        raise DomainError(f"need finite t and r >= 0, got ({r}, {t})")
    if not t > 0.0:
        return 0.0
    if (pair.substitution == "light_cone"
            and abs(t - r) <= _EDGE_MARGIN * max(1.0, t)):
        raise EdgeError(
            f"pair {pair.id} is singular on t = r; got (r, t) = ({r}, {t})")
    lo, hi = pair.radial_range(t)
    if not lo <= r < hi:
        return 0.0
    value = pair.st_profile(t, d, f.f.eval)(r)
    if pair.substitution == "light_cone":
        return value / edge_distance(r, hi)
    return value


def eval_fl(pair: PairDescriptor, d: int, f: TestOriginal, k: float,
            s: complex) -> complex:
    """pair.fl_profile(k, d, f.fhat)(s) where fhat(phi) is f's Laplace
    integral: refuses Re phi(k, s) <= sigma0 with ValidityError."""
    image = pair.fl_profile(k, d, f.fhat)
    s = complex(s)
    phi = pair.fl_phi(k, s)
    if not phi.real > f.f.sigma0:
        raise ValidityError(
            f"Re phi = {phi.real:.6g} does not exceed sigma0 = "
            f"{f.f.sigma0:.6g} for pair {pair.id}")
    return image(s)


def registry_rows() -> Sequence[PairDescriptor]:
    """All nine rows in table order."""
    return tuple(_REGISTRY.values())


def registry_text(rows: Optional[Sequence[PairDescriptor]] = None) -> str:
    """Plain-text listing of the given rows (default: the whole registry)."""
    lines = ["id   dims      Fourier-Laplace side  <->  space-time side"]
    for row in registry_rows() if rows is None else rows:
        dims = "any d" if row.min_dim == 1 else f"d >= {row.min_dim}"
        lines.append(f"{row.id}  {dims:8s}  {row.fl_text}  <->  "
                     f"{row.st_text}   [{row.note}]")
    return "\n".join(lines)

