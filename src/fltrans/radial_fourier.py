"""d-dimensional isotropic Fourier analysis.

For a function f(r) of the radius alone, the d-dimensional Fourier
transform reduces to a one-dimensional integral against the averaged
plane-wave kernel

    ghat_d(k, x) = (2 pi)^{d/2} / S_d * (k x)^{1 - d/2} J_{d/2-1}(k x),

with S_d the measure of the unit sphere.  ghat_d equals cos(kx), J0(kx)
and sin(kx)/(kx) in one, two and three dimensions.  The forward transform
uses the kernel with no prefactor; the inverse carries the (2 pi)^{-d}
normalization, so the two directions share one integration routine.
Every radial integral (the transforms, the verifier's space-time hop,
the radiative transfer chain) integrates one integrand,
S_d g(r) r^{d-1} ghat_d(k, r): radial_quadrature, which owns the
edge-singularity substitutions, the light-cone weight and the phase
breaks of a finite range, or, for tails that oscillate many times, the
oscillatory engine with cells between the zeros of ghat_d.  Each
integral resolves its kernel once (_kernel), to a function of kx alone,
so the quadrature nodes pay no dispatch on d; in d >= 4 it calls
numerics' one J_nu branch table wherever bessel_j would not sum the
series.  kernel_ghat is the checked pointwise form of the same kernel.
Every entry point takes d as an int or a Dimension and refuses anything
but an integer >= 1 (_dimension).  forward_result is the one transform
body over (0, inf); inverse_result scales it.  Every radial hop here and
in the verifier and the radiative transfer chain that returns a bare
value takes it through _value, which raises QuadratureError on an
unconverged integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .numerics import (
    DomainError,
    IntegralResult,
    QuadratureSpec,
    _bessel_j,
    _bessel_j0,
    _nonnegative,
    bessel_j_zero,
    bessel_series,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)


class QuadratureError(RuntimeError):
    """A transform integral failed to converge within the budget."""


# from this wavenumber on, Wynn-accelerated cells between the kernel's
# zeros beat geometric cells on an exponentially decaying tail.  Measured as
# evaluations and best-of-7 times, geometric / oscillatory, for e^{-r} in
# d = 1..6 and e^{-r}/r in d = 2, 3 (CPython 3.11, shared 2-core Xeon): at
# every k measured from 1 to 7 the oscillatory cells took fewer evaluations
# and less time in all 8 (k = 1, e^{-r}: d = 3, 231/105 and 0.23/0.13 ms;
# d = 6, 231/150 and 1.02/0.68 ms; k = 7, d = 6: 1155/240, 5.6/1.2 ms); at
# k = 0.75 fewer evaluations in all 8, but d = 1 tied in time at 0.13 ms;
# at k = 0.1 geometric cells took fewer evaluations in all 8.  Gaussian
# tails stay on geometric cells, because Wynn's epsilon stalls on their
# super-geometric partial sums
_OSC_WAVENUMBER = 1.0

# the phase k r one initial panel of a finite radial_quadrature spans:
# about the most a G10/K21 panel resolves, since G10 is exact only to
# degree 19.  On cos(x + phi) over a span L of x the panel's error
# estimate (from |K21 - G10|) is at most 5.6e-14 at L = 2.5 pi, 1.7e-12
# at 3 pi, 1.8e-10 at 3.5 pi and 9.2e-9 at 4 pi, against the default
# tolerances of 1e-12 absolute and 1e-10 relative.  Measured as
# integrate_adaptive evaluations (finite ranges only) of one traced pass of
# the wave benchmark (59493 with a single panel): 46011, 40572, 36771,
# 37779 and 47040 at 2, 2.5, 3, 3.5 and 4 pi per panel
_PANEL_PHASE = 3.0 * math.pi

# changes of variable radial_quadrature applies at an edge singularity
SUBSTITUTIONS = ("none", "origin", "light_cone")


@dataclass(frozen=True)
class Dimension:
    """Space dimension d >= 1."""

    d: int

    def __post_init__(self) -> None:
        _dimension(self)


@dataclass(frozen=True)
class RadialProfile:
    """Scalar function of a nonnegative radius with its tail's decay class.

    The transforms integrate eval over (0, inf).  decay_class in
    {"exponential", "gaussian", "algebraic"} selects the semi-infinite
    strategy: algebraic tails, and exponential tails at k >= 1, go
    through the oscillatory engine, everything else through geometric
    cells (integrate_semi_infinite).
    """

    eval: Callable[[float], float]
    decay_class: str = "exponential"

    def __post_init__(self) -> None:
        if self.decay_class not in ("exponential", "gaussian", "algebraic"):
            raise DomainError(f"unknown decay_class {self.decay_class!r}")


def _dimension(dim: Dimension | int) -> int:
    # d of a Dimension or an integral number >= 1; 2.5 is refused, not truncated
    d = dim.d if isinstance(dim, Dimension) else dim
    if not (d >= 1 and d % 1 == 0):  # also refuses NaN and inf
        raise DomainError(f"dimension must be an integer >= 1, got {d}")
    return int(d)


def sphere_measure(dim: Dimension | int) -> float:
    """Measure S_d = 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    d = _dimension(dim)
    return 2.0 * math.pi ** (0.5 * d) / math.gamma(0.5 * d)


def _sinc(z: float) -> float:
    if z < 1e-4:
        z2 = z * z
        return 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0)
    return math.sin(z) / z


def _kernel(d: int) -> Callable[[float], float]:
    """The one-argument kernel z -> ghat_d at z = kx >= 0, for an integer d >= 1.

    The dispatch on d happens here, once per integral, not at every
    quadrature node: cos, the table J0 and sinc in one, two and three
    dimensions, otherwise Gamma(d/2) (z/2)^{1-d/2} J_{d/2-1}(z) with nu and
    Gamma(d/2) computed once.  For d >= 4, nu = d/2 - 1 >= 1: the normalized
    series S_nu(z) itself wherever bessel_j would sum the series (z < nu,
    z <= 8), elsewhere bessel_j's own branch table, _bessel_j, without its
    checks; the values equal bessel_j's bit for bit.  z is not checked.
    """
    if d == 1:
        return math.cos
    if d == 2:
        return _bessel_j0
    if d == 3:
        return _sinc
    nu = 0.5 * d - 1.0
    scale = math.gamma(0.5 * d)

    def general(z: float) -> float:
        if z < nu and z <= 8.0:
            return bessel_series(nu, z)
        return scale * (0.5 * z) ** -nu * _bessel_j(nu, z)

    return general


def kernel_ghat(dim: Dimension | int, k: float, x: float) -> float:
    """Directionally averaged plane-wave kernel ghat_d(k, x).

    Depends on the product kx only, which must be finite and >= 0; the
    kx -> 0 limit is 1 (removable singularity handled analytically).
    """
    d = _dimension(dim)
    z = k * x
    _nonnegative("kernel argument", z)
    return _kernel(d)(z)


def _integrand(d: int, g: Callable[[float], float],
               k: float) -> Callable[[float], float]:
    # S_d g(r) r^{d-1} ghat_d(k, r), the integrand of every radial integral
    sd, kern, e = sphere_measure(d), _kernel(d), d - 1
    return lambda r: sd * g(r) * r ** e * kern(k * r)


def edge_distance(r: float, hi: float) -> float:
    """sqrt(hi^2 - r^2), without the cancellation of hi*hi - r*r at r ~ hi."""
    return math.sqrt((hi - r) * (hi + r))


def _phase_breaks(k: float, width: float, spec: QuadratureSpec, at) -> list:
    # the breaks at(i, m), i = 1 .. m - 1, of m equal spans of r, each
    # carrying at most 3 pi of the phase k r (at most max_subdivisions
    # spans); none where one span does
    spans = k * width / _PANEL_PHASE
    if spans <= 1.0:
        return []
    m = int(spec.max_subdivisions) if spans >= spec.max_subdivisions else \
        math.ceil(spans)
    return [at(i, m) for i in range(1, m)]


def radial_quadrature(d: int, g: Callable[[float], float], k: float,
                      lo: float, hi: float, substitution: str,
                      spec: QuadratureSpec) -> IntegralResult:
    """S_d * integral of g(r) W(r) r^{d-1} ghat_d(k, r) over (lo, hi).

    substitution (one of SUBSTITUTIONS) regularizes an integrable edge
    singularity: "none"; "origin", r = w^2, for fractional powers of g at
    r = lo = 0; both with W = 1.  "light_cone" owns the weight
    W = 1/sqrt((hi - r)(hi + r - 2 lo)), 1/sqrt(hi^2 - r^2) at lo = 0, so
    g is the regular part alone: r = lo + (hi - lo) sin(theta) turns
    W(r) dr into exactly d theta.  An infinite hi (substitution "none"
    only) goes to integrate_semi_infinite.  A finite range starts the
    adaptive bisection from m = min(max_subdivisions,
    max(1, ceil(k (hi - lo) / (3 pi)))) panels of equal spans of r, with
    breaks r_i = lo + i (hi - lo) / m mapped into the integration
    variable: sqrt(r_i) under "origin", asin(i / m) under "light_cone",
    r_i under "none".  3 pi of phase is about the most one G10/K21 panel
    resolves (_PANEL_PHASE); k (hi - lo) <= 3 pi, k = 0 included, takes
    one panel as without breaks.  k must be finite and >= 0 and the range
    must satisfy 0 <= lo <= hi; both are checked once, before any node,
    and the kernel is resolved once (_kernel).
    """
    if substitution not in SUBSTITUTIONS:
        raise DomainError(f"unknown substitution {substitution!r}")
    _nonnegative("wavenumber", k)
    if not 0.0 <= lo <= hi:  # also refuses NaN
        raise DomainError(
            f"radial range must satisfy 0 <= lo <= hi, got ({lo}, {hi})")
    if substitution != "none" and math.isinf(hi):
        raise DomainError(f"substitution {substitution!r} needs a finite hi")
    plain = _integrand(_dimension(d), g, k)
    if math.isinf(hi):
        return integrate_semi_infinite(plain, lo, spec)
    width = hi - lo
    if substitution == "origin":
        # r = w^2 turns fractional powers of r at the origin polynomial
        return integrate_adaptive(
            lambda w: plain(w * w) * 2.0 * w, math.sqrt(lo), math.sqrt(hi),
            spec, _phase_breaks(k, width, spec,
                                lambda i, m: math.sqrt(lo + i * width / m)))
    if substitution == "light_cone":
        return integrate_adaptive(
            lambda theta: plain(lo + width * math.sin(theta)),
            0.0, 0.5 * math.pi, spec,
            _phase_breaks(k, width, spec, lambda i, m: math.asin(i / m)))
    return integrate_adaptive(
        plain, lo, hi, spec,
        _phase_breaks(k, width, spec, lambda i, m: lo + i * width / m))


def forward_result(dim: Dimension | int, profile: RadialProfile, k: float,
                   spec: QuadratureSpec) -> IntegralResult:
    """S_d * integral of profile(r) r^{d-1} ghat_d(k, r) over (0, inf), with
    the full IntegralResult (no raise on failure)."""
    _nonnegative("wavenumber", k)
    d = _dimension(dim)
    if k > 0.0 and (profile.decay_class == "algebraic" or (
            profile.decay_class == "exponential" and k >= _OSC_WAVENUMBER)):
        # slowly decaying or rapidly oscillating tail: cell by cell between
        # the zeros of ghat_d, those of J_{d/2-1}(k r), with acceleration of
        # the alternating partial sums
        nu = 0.5 * d - 1.0
        return integrate_oscillatory(_integrand(d, profile.eval, k),
                                     lambda n: bessel_j_zero(nu, n) / k, spec)
    return radial_quadrature(d, profile.eval, k, 0.0, math.inf, "none", spec)


def inverse_result(dim: Dimension | int, image: RadialProfile, r: float,
                   spec: QuadratureSpec) -> IntegralResult:
    """Inverse transform with the full IntegralResult (no raise on failure):
    forward_result over k with its value, estimate and magnitude scaled by
    (2 pi)^{-d}."""
    _nonnegative("radius", r)
    res = forward_result(dim, image, r, spec)
    scale = (2.0 * math.pi) ** -_dimension(dim)
    return IntegralResult(res.value * scale, res.error_estimate * scale,
                          res.converged, res.evaluations,
                          res.magnitude * scale)


def _value(res: IntegralResult, hop: str, point: str) -> float:
    # the value of a radial hop's integral, which must have converged
    if not res.converged:
        raise QuadratureError(
            f"{hop} did not converge at {point} "
            f"(error estimate {res.error_estimate:.3e})")
    return float(res.value.real if isinstance(res.value, complex) else res.value)


def forward(dim: Dimension | int, profile: RadialProfile, k: float,
            spec: QuadratureSpec) -> float:
    """Radial Fourier transform S_d int_0^inf f(r) r^{d-1} ghat_d(k, r) dr.

    Raises QuadratureError if the underlying engine does not converge.
    """
    return _value(forward_result(dim, profile, k, spec),
                  "forward radial transform", f"k={k}")


def inverse(dim: Dimension | int, image: RadialProfile, r: float,
            spec: QuadratureSpec) -> float:
    """Inverse transform: the same integral over k with a (2 pi)^{-d} factor."""
    return _value(inverse_result(dim, image, r, spec),
                  "inverse radial transform", f"r={r}")
