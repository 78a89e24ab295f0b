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
edge-singularity substitutions and the light-cone weight, so that g is
only the regular part (QUADPACK's QAWS convention), or, for tails that
oscillate many times, the oscillatory engine with cells between the
zeros of ghat_d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .numerics import (
    DomainError,
    IntegralResult,
    QuadratureSpec,
    bessel_j,
    bessel_j_zero,
    bessel_series,
    gamma_fn,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)


class QuadratureError(RuntimeError):
    """A transform integral failed to converge within the budget."""


# above this wavenumber an exponentially decaying tail still spans many
# kernel oscillations, and Wynn-accelerated cells between the kernel's
# zeros beat geometric cells; Gaussian tails stay on geometric cells,
# because Wynn's epsilon stalls on their super-geometric partial sums
_OSC_WAVENUMBER = 8.0

# changes of variable radial_quadrature applies at an edge singularity
SUBSTITUTIONS = ("none", "origin", "light_cone")


@dataclass(frozen=True)
class Dimension:
    """Space dimension d >= 1."""

    d: int

    def __post_init__(self) -> None:
        _dimension(self.d)


@dataclass(frozen=True)
class RadialProfile:
    """Scalar function of a nonnegative radius with its tail's decay class.

    The transforms integrate eval over (0, inf).  decay_class in
    {"exponential", "gaussian", "algebraic"} selects the semi-infinite
    strategy: algebraic tails, and exponential tails at k >= 8, go
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
    return 2.0 * math.pi ** (0.5 * d) / gamma_fn(0.5 * d)


def kernel_ghat(dim: Dimension | int, k: float, x: float) -> float:
    """Directionally averaged plane-wave kernel ghat_d(k, x).

    Depends on the product kx only; the kx -> 0 limit is 1 (removable
    singularity handled analytically).  Dimensions 1-3 dispatch to the
    closed forms cos, J0 and sinc.
    """
    d = dim.d if isinstance(dim, Dimension) else dim
    if not (d >= 1 and d % 1 == 0):  # _dimension's test, inline on a hot path
        raise DomainError(f"dimension must be an integer >= 1, got {d}")
    z = k * x
    if z < 0.0:
        raise DomainError("kernel argument must be nonnegative")
    if d == 1:
        return math.cos(z)
    if d == 2:
        return bessel_j(0, z)
    if d == 3:
        if z < 1e-4:
            z2 = z * z
            return 1.0 - z2 / 6.0 * (1.0 - z2 / 20.0)
        return math.sin(z) / z
    # general dimension: Gamma(d/2) (z/2)^{1-d/2} J_{d/2-1}(z), which is the
    # normalized series S_{d/2-1}(z) itself where bessel_j would sum that
    nu = 0.5 * d - 1.0
    if z < nu and z <= 8.0:
        return bessel_series(nu, z)
    return gamma_fn(0.5 * d) * (0.5 * z) ** -nu * bessel_j(nu, z)


def _integrand(d: int, g: Callable[[float], float],
               k: float) -> Callable[[float], float]:
    # S_d g(r) r^{d-1} ghat_d(k, r), the integrand of every radial integral
    sd = sphere_measure(d)
    return lambda r: sd * g(r) * r ** (d - 1) * kernel_ghat(d, k, r)


def edge_distance(r: float, hi: float) -> float:
    """sqrt(hi^2 - r^2), without the cancellation of hi*hi - r*r at r ~ hi."""
    return math.sqrt((hi - r) * (hi + r))


def radial_quadrature(d: int, g: Callable[[float], float], k: float,
                      lo: float, hi: float, substitution: str,
                      spec: QuadratureSpec) -> IntegralResult:
    """S_d * integral of g(r) W(r) r^{d-1} ghat_d(k, r) over (lo, hi).

    substitution (one of SUBSTITUTIONS) regularizes an integrable edge
    singularity: "none"; "origin", r = w^2, for fractional powers of g at
    r = lo = 0; both with W = 1.  "light_cone" owns the weight
    W = 1/sqrt((hi - r)(hi + r - 2 lo)), 1/sqrt(hi^2 - r^2) at lo = 0, so
    g is the regular part alone: r = lo + (hi - lo) sin(theta) turns
    W(r) dr into exactly d theta.  An infinite hi (substitution "none")
    goes to integrate_semi_infinite.
    """
    if substitution not in SUBSTITUTIONS:
        raise DomainError(f"unknown substitution {substitution!r}")
    plain = _integrand(d, g, k)
    if substitution == "origin":
        # r = w^2 turns fractional powers of r at the origin polynomial
        return integrate_adaptive(lambda w: plain(w * w) * 2.0 * w,
                                  math.sqrt(lo), math.sqrt(hi), spec)
    if substitution == "light_cone":
        return integrate_adaptive(
            lambda theta: plain(lo + (hi - lo) * math.sin(theta)),
            0.0, 0.5 * math.pi, spec)
    if math.isinf(hi):
        return integrate_semi_infinite(plain, lo, spec)
    return integrate_adaptive(plain, lo, hi, spec)


def _radial_integral(dim: Dimension, profile: RadialProfile, k: float,
                     spec: QuadratureSpec) -> IntegralResult:
    """S_d * integral of profile(r) r^{d-1} ghat_d(k, r) over (0, inf)."""
    d = dim.d
    if k > 0.0 and (profile.decay_class == "algebraic" or (
            profile.decay_class == "exponential" and k >= _OSC_WAVENUMBER)):
        # slowly decaying or rapidly oscillating tail: cell by cell between
        # the zeros of ghat_d, those of J_{d/2-1}(k r), with acceleration of
        # the alternating partial sums
        nu = 0.5 * d - 1.0
        return integrate_oscillatory(_integrand(d, profile.eval, k),
                                     lambda n: bessel_j_zero(nu, n) / k, spec)
    return radial_quadrature(d, profile.eval, k, 0.0, math.inf, "none", spec)


def forward_result(dim: Dimension, profile: RadialProfile, k: float,
                   spec: QuadratureSpec) -> IntegralResult:
    """Forward transform with the full IntegralResult (no raise on failure)."""
    if not 0.0 <= k < math.inf:  # also refuses NaN
        raise DomainError(f"wavenumber must be finite and >= 0, got {k}")
    return _radial_integral(dim, profile, k, spec)


def inverse_result(dim: Dimension, image: RadialProfile, r: float,
                   spec: QuadratureSpec) -> IntegralResult:
    """Inverse transform with the full IntegralResult (no raise on failure)."""
    if not 0.0 <= r < math.inf:  # also refuses NaN
        raise DomainError(f"radius must be finite and >= 0, got {r}")
    res = _radial_integral(dim, image, r, spec)
    scale = (2.0 * math.pi) ** (-dim.d)
    return IntegralResult(res.value * scale, res.error_estimate * scale,
                          res.converged, res.evaluations)


def _value(res: IntegralResult, direction: str, point: str) -> float:
    if not res.converged:
        raise QuadratureError(
            f"{direction} radial transform did not converge at {point} "
            f"(error estimate {res.error_estimate:.3e})")
    return float(res.value.real if isinstance(res.value, complex) else res.value)


def forward(dim: Dimension, profile: RadialProfile, k: float,
            spec: QuadratureSpec) -> float:
    """Radial Fourier transform S_d int_0^inf f(r) r^{d-1} ghat_d(k, r) dr.

    Raises QuadratureError if the underlying engine does not converge.
    """
    return _value(forward_result(dim, profile, k, spec), "forward", f"k={k}")


def inverse(dim: Dimension, image: RadialProfile, r: float,
            spec: QuadratureSpec) -> float:
    """Inverse transform: the same integral over k with a (2 pi)^{-d} factor."""
    return _value(inverse_result(dim, image, r, spec), "inverse", f"r={r}")
