"""Registry of simultaneous Fourier-Laplace double-transform pairs.

Each entry relates a space-time original P(r, t) f(A(r, t)) Theta(...) to
its combined Fourier(space)-Laplace(time) image psi(k, s) fhat(phi(k, s)),
for spherically symmetric functions in d dimensions and an arbitrary
analytic f with Laplace image fhat.  Rows are stored in reduced form
(prefactor + argument map + support); the Efros composition engine
reconstructs the d = 2 member of the sqrt(t^2 - u^2) family from its base
identity, demonstrating where the reduced rows come from.

Type-1 rows multiply fhat(s) by a function of (k, s); type-2 rows hand
fhat a genuinely k-dependent argument.  All square roots and fractional
powers take principal branches through sqrt_s2k2, so the images evaluate
correctly on an inversion contour that encloses the branch segment.

Entry 2.4 carries two space-time branches: its argument map
u(t, r) = t -+ sqrt(t^2 - r^2) has two roots inside the light cone, and
both contribute.

A row also carries what the radial quadrature of its space-time side
needs.  radial_range(t) = (lo, hi) is the r-support at time t (hi may be
inf).  substitution names the change of variable that regularizes the
row's integrable singularity, one of radial_fourier.SUBSTITUTIONS:
"none"; "origin", r = w^2, for fractional powers of r at r = 0;
"light_cone", r = t sin(theta), for a 1/sqrt(t^2 - r^2) edge of the
support (0, t).  d1_integrable says whether the space-time side is
radially integrable in one dimension.  The verifier reads only these
fields, so adding a row touches only this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .laplace import LaplaceImage, TimeOriginal, sqrt_s2k2
from .radial_fourier import SUBSTITUTIONS, sphere_measure


class UnknownPairError(KeyError):
    """Requested id is not one of the registry tags."""


class ConstraintError(ValueError):
    """Dimension outside the row's validity constraint."""


class EdgeError(ValueError):
    """Pointwise evaluation requested on a singular support edge."""


class ValidityError(ValueError):
    """Re phi(k, s) does not exceed the original's growth abscissa."""


_EDGE_MARGIN = 1e-3


@dataclass(frozen=True)
class PairDescriptor:
    """One registry row in reduced form.

    st_prefactor/st_argument describe the space-time side
    prefactor(r, t, d) * f(argument(r, t)) for r in radial_range(t); rows
    with a second argument branch (entry 2.4) populate st_prefactor_2 and
    st_argument_2.  substitution and d1_integrable steer the radial
    quadrature (see the module docstring).  fl_psi/fl_phi describe the
    Fourier-Laplace side psi(k, s, d) * fhat(phi(k, s)); type_one is False
    for type-2 rows, whose argument phi(k, s) depends on k.  efros_dtau_du
    carries d tau/d u of the generalized convolution tau(t, u) =
    sqrt(t^2 - u^2) where the base identity is exhibited.
    """

    id: str
    dim_constraint: Callable[[int], bool]
    dim_note: str
    st_prefactor: Callable[[float, float, int], float]
    st_argument: Callable[[float, float], float]
    radial_range: Callable[[float], tuple[float, float]]
    fl_psi: Callable[[float, complex, int], complex]
    fl_phi: Callable[[float, complex], complex]
    st_text: str
    fl_text: str
    note: str
    substitution: str = "none"
    d1_integrable: bool = True
    type_one: bool = True
    st_prefactor_2: Optional[Callable[[float, float, int], float]] = None
    st_argument_2: Optional[Callable[[float, float], float]] = None
    efros_dtau_du: Optional[Callable[[float, float], float]] = None

    def __post_init__(self) -> None:
        if self.substitution not in SUBSTITUTIONS:
            raise ValueError(f"pair {self.id}: unknown substitution "
                             f"{self.substitution!r}")

    def spacetime_value(self, d: int, f: TestOriginal, r: float,
                        t: float) -> float:
        """Both argument branches at (r, t), without support or edge checks."""
        value = self.st_prefactor(r, t, d) * f.f.eval(self.st_argument(r, t))
        if self.st_argument_2 is not None:
            value += self.st_prefactor_2(r, t, d) * f.f.eval(
                self.st_argument_2(r, t))
        return value


@dataclass(frozen=True)
class TestOriginal:
    """Analytic test function f with a closed-form Laplace image.

    image_pole_height bounds |Im| of the image's singularities; inversion
    contours are raised above it.
    """

    id: str
    f: TimeOriginal
    fhat: LaplaceImage
    description: str
    image_pole_height: float = 0.0


# --------------------------------------------------------------------------
# registry construction
# --------------------------------------------------------------------------

def _pair_11() -> PairDescriptor:
    def pref(r, t, d):
        return math.pi * sphere_measure(d - 1) / (2.0 * math.pi) ** d / r

    return PairDescriptor(
        id="1.1",
        dim_constraint=lambda d: d >= 2,
        dim_note="d >= 2",
        st_prefactor=pref,
        st_argument=lambda r, t: t - r,
        radial_range=lambda t: (0.0, t),
        substitution="origin",
        fl_psi=lambda k, s, d: sqrt_s2k2(s, k) ** (1 - d),
        fl_phi=lambda k, s: complex(s),
        st_text="pi*S_(d-1)/(2*pi)^d * f(t-r)/r * Theta(t-r)",
        fl_text="(s^2+k^2)^((1-d)/2) * F(s)",
        note="wave shell against f(t-r)",
    )


def _pair_12() -> PairDescriptor:
    return PairDescriptor(
        id="1.2",
        dim_constraint=lambda d: d >= 1,
        dim_note="any d",
        st_prefactor=lambda r, t, d: (2.0 * math.pi * r) ** (-0.5 * d),
        st_argument=lambda r, t: t - r,
        radial_range=lambda t: (0.0, t),
        substitution="origin",
        fl_psi=lambda k, s, d: (s + sqrt_s2k2(s, k)) ** (1 - 0.5 * d)
        / sqrt_s2k2(s, k),
        fl_phi=lambda k, s: complex(s),
        st_text="(2*pi*r)^(-d/2) * f(t-r) * Theta(t-r)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2)/sqrt(s^2+k^2) * F(s)",
        note="retarded kernel, half-power radial weight",
    )


def _pair_13() -> PairDescriptor:
    return PairDescriptor(
        id="1.3",
        dim_constraint=lambda d: d != 2,
        dim_note="d != 2",
        st_prefactor=lambda r, t, d: (0.5 * d - 1.0)
        / (2.0 * math.pi) ** (0.5 * d) / r ** (0.5 * d + 1.0),
        st_argument=lambda r, t: t - r,
        radial_range=lambda t: (0.0, t),
        substitution="origin",
        d1_integrable=False,
        fl_psi=lambda k, s, d: (s + sqrt_s2k2(s, k)) ** (1 - 0.5 * d),
        fl_phi=lambda k, s: complex(s),
        st_text="(d/2-1)/(2*pi)^(d/2) * f(t-r)/r^(d/2+1) * Theta(t-r)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2) * F(s)",
        note="d=1 space-time side is not radially integrable",
    )


def _pair_14() -> PairDescriptor:
    return PairDescriptor(
        id="1.4",
        dim_constraint=lambda d: d >= 1,
        dim_note="any d",
        st_prefactor=lambda r, t, d: math.pi ** (-0.5 * d),
        st_argument=lambda r, t: t - r * r,
        radial_range=lambda t: (0.0, math.sqrt(t)),
        fl_psi=lambda k, s, d: s ** (-0.5 * d) * cmath.exp(-k * k / (4.0 * s)),
        fl_phi=lambda k, s: complex(s),
        st_text="pi^(-d/2) * f(t-r^2) * Theta(t-r^2)",
        fl_text="s^(-d/2) * exp(-k^2/(4s)) * F(s)",
        note="diffusive-front argument t - r^2",
    )


def make_pair_15(a: float) -> PairDescriptor:
    """Entry 1.5 with its positive shift parameter (a = 0 degenerates to 1.2)."""
    if a < 0.0:
        raise ValueError("entry 1.5 requires a >= 0")

    def pref(r, t, d):
        root = math.sqrt(r * r + a * a)
        return (2.0 * math.pi) ** (-0.5 * d) * (a + root) ** (1 - 0.5 * d) / root

    def psi(k, s, d):
        sq = sqrt_s2k2(s, k)
        return cmath.exp(-a * (sq - s)) * (s + sq) ** (1 - 0.5 * d) / sq

    return PairDescriptor(
        id="1.5",
        dim_constraint=lambda d: d >= 1,
        dim_note="any d",
        st_prefactor=pref,
        st_argument=lambda r, t: t + a - math.sqrt(r * r + a * a),
        radial_range=lambda t: (0.0, math.sqrt(t * t + 2.0 * a * t)),
        fl_psi=psi,
        fl_phi=lambda k, s: complex(s),
        st_text="(2*pi)^(-d/2)*(a+sqrt(r^2+a^2))^(1-d/2)/sqrt(r^2+a^2)"
                " * f(t+a-sqrt(r^2+a^2)) * Theta(...)",
        fl_text="exp(-a*(sqrt(s^2+k^2)-s)) * (s+sqrt(s^2+k^2))^(1-d/2)"
                "/sqrt(s^2+k^2) * F(s)",
        note=f"shifted light cone, a = {a:g}",
    )


def _pair_21() -> PairDescriptor:
    def pref(r, t, d):
        q = math.sqrt(t * t - r * r)
        return (2.0 * math.pi) ** (-0.5 * d) * (t + q) ** (1 - 0.5 * d) / q

    return PairDescriptor(
        id="2.1",
        dim_constraint=lambda d: d >= 1,
        dim_note="any d",
        st_prefactor=pref,
        st_argument=lambda r, t: math.sqrt(t * t - r * r),
        radial_range=lambda t: (0.0, t),
        substitution="light_cone",
        fl_psi=lambda k, s, d: (s + sqrt_s2k2(s, k)) ** (1 - 0.5 * d)
        / sqrt_s2k2(s, k),
        fl_phi=lambda k, s: sqrt_s2k2(s, k),
        st_text="(2*pi)^(-d/2)*(t+sqrt(t^2-r^2))^(1-d/2)/sqrt(t^2-r^2)"
                " * f(sqrt(t^2-r^2)) * Theta(t-r)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2)/sqrt(s^2+k^2) * F(sqrt(s^2+k^2))",
        note="proper-time argument; d=2 member is the symmetric special form",
        efros_dtau_du=lambda t, u: -u / math.sqrt(t * t - u * u),
        type_one=False,
    )


def _pair_22() -> PairDescriptor:
    return PairDescriptor(
        id="2.2",
        dim_constraint=lambda d: d >= 1,
        dim_note="any d",
        st_prefactor=lambda r, t, d: (2.0 * math.pi) ** (-0.5 * d)
        * r ** (2 - d) * (2.0 * t) ** (0.5 * d - 2.0),
        st_argument=lambda r, t: r * r / (4.0 * t),
        radial_range=lambda t: (0.0, math.inf),
        fl_psi=lambda k, s, d: s ** (-0.5 * d),
        fl_phi=lambda k, s: complex(k * k) / s,
        st_text="(2*pi)^(-d/2) * r^(2-d)/(2t)^(2-d/2) * f(r^2/(4t))",
        fl_text="s^(-d/2) * F(k^2/s)",
        note="self-similar diffusion argument; support is all t > 0",
        type_one=False,
    )


def _pair_23() -> PairDescriptor:
    return PairDescriptor(
        id="2.3",
        dim_constraint=lambda d: d >= 1,
        dim_note="any d",
        st_prefactor=lambda r, t, d: (2.0 * math.pi) ** (-0.5 * d)
        * r ** (2 - d) * t ** (0.5 * d - 2.0),
        st_argument=lambda r, t: (r * r - t * t) / (2.0 * t),
        radial_range=lambda t: (t, math.inf),
        fl_psi=lambda k, s, d: (s + sqrt_s2k2(s, k)) ** (1 - 0.5 * d)
        / sqrt_s2k2(s, k),
        fl_phi=lambda k, s: sqrt_s2k2(s, k) - s,
        st_text="(2*pi)^(-d/2) * r^(2-d)/t^(2-d/2) * f((r^2-t^2)/(2t))"
                " * Theta(r-t)",
        fl_text="(s+sqrt(s^2+k^2))^(1-d/2)/sqrt(s^2+k^2) * F(sqrt(s^2+k^2)-s)",
        note="support outside the light cone; needs a decaying f",
        type_one=False,
    )


def _pair_24() -> PairDescriptor:
    # Both roots u_-+ = t -+ sqrt(t^2 - r^2) of the argument map contribute.
    # The cited table prints this row with a single branch and the image
    # argument s + k^2/(4 s); that version fails the k = 0 consistency
    # check int f != int f * w/(t+w), so the registry stores the two-branch
    # form with phi = (s^2 + k^2)/(2 s), which passes mixed-domain
    # verification in d = 1, 2, 3.
    def pref_minus(r, t, d):
        q = math.sqrt(t * t - r * r)
        return (2.0 * math.pi) ** (-0.5 * d) * (t - q) ** (1 - 0.5 * d) / q

    def pref_plus(r, t, d):
        q = math.sqrt(t * t - r * r)
        return (2.0 * math.pi) ** (-0.5 * d) * (t + q) ** (1 - 0.5 * d) / q

    return PairDescriptor(
        id="2.4",
        dim_constraint=lambda d: d >= 1,
        dim_note="any d",
        st_prefactor=pref_minus,
        st_argument=lambda r, t: t - math.sqrt(t * t - r * r),
        radial_range=lambda t: (0.0, t),
        substitution="light_cone",
        fl_psi=lambda k, s, d: s ** (-0.5 * d),
        fl_phi=lambda k, s: (s * s + k * k) / (2.0 * s),
        st_text="(2*pi)^(-d/2)/sqrt(t^2-r^2) * [u^(1-d/2) f(u)]_(u=t-+sqrt(t^2-r^2))"
                " summed over both roots, Theta(t-r)",
        fl_text="s^(-d/2) * F((s^2+k^2)/(2s))",
        note="two argument roots inside the cone (corrected two-branch row)",
        st_prefactor_2=pref_plus,
        st_argument_2=lambda r, t: t + math.sqrt(t * t - r * r),
        type_one=False,
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

def _exp_decay(a: float) -> TestOriginal:
    return TestOriginal(
        id=f"exp_decay:{a:g}",
        f=TimeOriginal(lambda u: math.exp(-a * u), sigma0=-a,
                       eval_complex=lambda z: cmath.exp(-a * z)),
        fhat=LaplaceImage(lambda s: 1.0 / (s + a), sigma0=-a),
        description=f"f(u) = exp(-{a:g} u), image 1/(s+{a:g})",
    )


def _poly_exp(n: int, a: float) -> TestOriginal:
    fact = math.factorial(n)
    return TestOriginal(
        id=f"poly_exp:{n},{a:g}",
        f=TimeOriginal(lambda u: u ** n * math.exp(-a * u), sigma0=-a,
                       eval_complex=lambda z: z ** n * cmath.exp(-a * z)),
        fhat=LaplaceImage(lambda s: fact / (s + a) ** (n + 1), sigma0=-a),
        description=f"f(u) = u^{n} exp(-{a:g} u), image {n}!/(s+{a:g})^{n + 1}",
    )


def _sine(a: float) -> TestOriginal:
    return TestOriginal(
        id=f"sine:{a:g}",
        f=TimeOriginal(lambda u: math.sin(a * u), sigma0=0.0, imag_growth=a,
                       eval_complex=lambda z: cmath.sin(a * z)),
        fhat=LaplaceImage(lambda s: a / (s * s + a * a), sigma0=0.0),
        description=f"f(u) = sin({a:g} u), image {a:g}/(s^2+{a:g}^2)",
        image_pole_height=a,
    )


def _unit() -> TestOriginal:
    return TestOriginal(
        id="unit",
        f=TimeOriginal(lambda u: 1.0, sigma0=0.0,
                       eval_complex=lambda z: 1.0 + 0.0j),
        fhat=LaplaceImage(lambda s: 1.0 / s, sigma0=0.0),
        description="f(u) = 1, image 1/s",
    )


def catalog_list() -> list[TestOriginal]:
    """Built-in test originals (decaying exponentials first)."""
    return [
        _exp_decay(0.5), _exp_decay(1.0), _exp_decay(2.0),
        _poly_exp(1, 1.0), _poly_exp(2, 1.0),
        _sine(1.0), _unit(),
    ]


def catalog_lookup(original_id: str) -> TestOriginal:
    """Resolve a "name" or "name:param1,param2" tag into a catalog entry."""
    name, _, params = original_id.partition(":")
    args = [float(p) for p in params.split(",")] if params else []
    if name == "exp_decay":
        return _exp_decay(args[0] if args else 1.0)
    if name == "poly_exp":
        n = int(args[0]) if args else 1
        a = args[1] if len(args) > 1 else 1.0
        return _poly_exp(n, a)
    if name == "sine":
        return _sine(args[0] if args else 1.0)
    if name == "unit":
        return _unit()
    raise UnknownPairError(f"unknown catalog original {original_id!r}")


# --------------------------------------------------------------------------
# evaluation of the two sides
# --------------------------------------------------------------------------

def _check_dim(pair: PairDescriptor, d: int) -> None:
    if not pair.dim_constraint(d):
        raise ConstraintError(
            f"pair {pair.id} requires {pair.dim_note}, got d = {d}")


def eval_spacetime(pair: PairDescriptor, d: int, f: TestOriginal,
                   r: float, t: float) -> float:
    """Space-time side value prefactor(r,t,d) * f(argument(r,t)) on support.

    Zero before t = 0 and outside radial_range(t).  Refuses points on the
    light-cone edge (|t - r| below a small margin) of rows singular there;
    quadrature callers integrate across such edges under a substitution
    instead.
    """
    _check_dim(pair, d)
    if (pair.substitution == "light_cone"
            and abs(t - r) <= _EDGE_MARGIN * max(1.0, abs(t))):
        raise EdgeError(
            f"pair {pair.id} is singular on t = r; got (r, t) = ({r}, {t})")
    if not t > 0.0:
        return 0.0
    lo, hi = pair.radial_range(t)
    if not lo <= r < hi:
        return 0.0
    return pair.spacetime_value(d, f, r, t)


def eval_fl(pair: PairDescriptor, d: int, f: TestOriginal, k: float,
            s: complex, check_validity: bool = True) -> complex:
    """Fourier-Laplace side psi(k, s, d) * fhat(phi(k, s)).

    check_validity enforces Re phi > sigma0, the condition under which
    fhat(phi) is literally the Laplace integral of f; inversion contours
    evaluate the closed-form continuation instead and disable the check.
    """
    _check_dim(pair, d)
    s = complex(s)
    phi = pair.fl_phi(k, s)
    if check_validity and not phi.real > f.f.sigma0:
        raise ValidityError(
            f"Re phi = {phi.real:.6g} does not exceed sigma0 = "
            f"{f.f.sigma0:.6g} for pair {pair.id}")
    return pair.fl_psi(k, s, d) * f.fhat.eval(phi)


def roots_tau(pair: PairDescriptor, r: float, t: float) -> list[tuple[float, float]]:
    """Solutions u_n of tau(t, u) = r with |d tau/d u| weights.

    For tau = sqrt(t^2 - u^2): one root u1 = sqrt(t^2 - r^2) when t > r,
    none otherwise (the edge t = r is measure zero and excluded).
    """
    if pair.efros_dtau_du is None:
        raise ValueError(f"pair {pair.id} carries no Efros tau data")
    if not (r > 0.0 and t > 0.0):
        raise ValueError("roots_tau requires r > 0 and t > 0")
    if t <= r:
        return []
    u1 = math.sqrt(t * t - r * r)
    return [(u1, abs(pair.efros_dtau_du(t, u1)))]


@dataclass(frozen=True)
class ComposedPair:
    """Both sides of the Efros-composed d = 2 pair for a given original."""

    spacetime_side: Callable[[float, float], float]
    fl_side: Callable[[float, complex], complex]


def efros_compose(f: TestOriginal, d: int = 2) -> ComposedPair:
    """Compose the base identity (d = 2) with an arbitrary analytic f.

    The base Laplace pair sends J0(k sqrt(t^2 - u^2)) Theta(t - u) to
    exp(-u sqrt(s^2 + k^2))/sqrt(s^2 + k^2); multiplying by f(u) and
    integrating over u turns the left side into a delta-sifted sum over
    the roots of tau(t, u) = r and the right side into
    fhat(sqrt(s^2 + k^2))/sqrt(s^2 + k^2), i.e. registry row 2.1 at d = 2.
    """
    if d != 2:
        raise ConstraintError("the exhibited base identity lives in d = 2")
    base = lookup("2.1")
    sd = sphere_measure(d)

    def spacetime_side(r: float, t: float) -> float:
        total = 0.0
        for u_n, jac in roots_tau(base, r, t):
            total += f.f.eval(u_n) / (sd * r ** (d - 1) * jac)
        return total

    def fl_side(k: float, s: complex) -> complex:
        sq = sqrt_s2k2(s, k)
        return f.fhat.eval(sq) / sq

    return ComposedPair(spacetime_side, fl_side)


def registry_rows() -> Sequence[PairDescriptor]:
    """All nine rows in table order."""
    return tuple(_REGISTRY.values())


def registry_text(rows: Optional[Sequence[PairDescriptor]] = None) -> str:
    """Plain-text listing of the given rows (default: the whole registry)."""
    lines = ["id   dims      Fourier-Laplace side  <->  space-time side"]
    for row in registry_rows() if rows is None else rows:
        lines.append(f"{row.id}  {row.dim_note:8s}  {row.fl_text}  <->  "
                     f"{row.st_text}   [{row.note}]")
    return "\n".join(lines)

