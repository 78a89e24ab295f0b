"""d-dimensional isotropic Fourier analysis.

For a function f(r) of the radius alone, the d-dimensional Fourier
transform reduces to a one-dimensional integral against the averaged
plane-wave kernel

    ghat_d(k, x) = (2 pi)^{d/2} / S_d * (k x)^{1 - d/2} J_{d/2-1}(k x),

with S_d the measure of the unit sphere.  ghat_d equals cos(kx), J0(kx)
and sin(kx)/(kx) in one, two and three dimensions.  The forward transform
uses the kernel with no prefactor; the inverse carries the (2 pi)^{-d}
normalization, so the two directions share one integration routine.
Apart from the oscillatory tail engine, every radial integral (the
transforms, the verifier's space-time hop, the radiative transfer chain)
is radial_quadrature, which owns the edge-singularity substitutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .numerics import (
    DomainError,
    IntegralResult,
    OscillatoryKernel,
    QuadratureSpec,
    bessel_j,
    gamma_fn,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)


class QuadratureError(RuntimeError):
    """A transform integral failed to converge within the budget."""


# above this wavenumber an exponentially decaying tail still spans many
# kernel oscillations, and zero-partitioned acceleration beats truncation;
# Gaussian tails stay on panels, because Wynn's epsilon stalls on their
# super-geometric partial sums
_OSC_WAVENUMBER = 8.0

# changes of variable radial_quadrature applies at an edge singularity
SUBSTITUTIONS = ("none", "origin", "light_cone")


@dataclass(frozen=True)
class Dimension:
    """Space dimension d >= 1."""

    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise DomainError(f"dimension must be >= 1, got {self.d}")


@dataclass(frozen=True)
class RadialProfile:
    """Scalar function of a nonnegative radius with support/decay metadata.

    eval(r) must vanish for r > support_upper.  decay_class
    in {"compact", "exponential", "gaussian", "algebraic"} selects the
    semi-infinite strategy: algebraic tails, and exponential tails at
    k >= 8, go through the oscillatory engine, everything else through
    plain panel truncation.
    """

    eval: Callable[[float], float]
    support_upper: float = math.inf
    decay_class: str = "exponential"

    def __post_init__(self) -> None:
        if self.decay_class not in ("compact", "exponential", "gaussian", "algebraic"):
            raise DomainError(f"unknown decay_class {self.decay_class!r}")


def sphere_measure(dim: Dimension | int) -> float:
    """Measure S_d = 2 pi^{d/2} / Gamma(d/2) of the unit sphere in R^d."""
    d = dim.d if isinstance(dim, Dimension) else int(dim)
    if d < 1:
        raise DomainError("dimension must be >= 1")
    return 2.0 * math.pi ** (0.5 * d) / gamma_fn(0.5 * d)


def kernel_ghat(dim: Dimension | int, k: float, x: float) -> float:
    """Directionally averaged plane-wave kernel ghat_d(k, x).

    Depends on the product kx only; the kx -> 0 limit is 1 (removable
    singularity handled analytically).  Dimensions 1-3 dispatch to the
    closed forms cos, J0 and sinc.
    """
    d = dim.d if isinstance(dim, Dimension) else int(dim)
    if d < 1:
        raise DomainError("dimension must be >= 1")
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
    # general dimension: Gamma(d/2) (z/2)^{1-d/2} J_{d/2-1}(z)
    if z < 0.5:
        # ascending series of the normalized kernel, exact limit 1 at z = 0
        total = 0.0
        term = 1.0
        m = 0
        while True:
            total += term
            m += 1
            term *= -(z * z / 4.0) / (m * (0.5 * d + m - 1.0))
            if abs(term) < 1e-18:
                return total
    nu = 0.5 * d - 1.0
    return gamma_fn(0.5 * d) * (0.5 * z) ** (1.0 - 0.5 * d) * bessel_j(nu, z)


def radial_quadrature(d: int, g: Callable[[float], float], k: float,
                      lo: float, hi: float, substitution: str,
                      spec: QuadratureSpec) -> IntegralResult:
    """S_d * integral of g(r) r^{d-1} ghat_d(k, r) over (lo, hi).

    substitution names the change of variable that regularizes an
    integrable edge singularity of g (one of SUBSTITUTIONS): "none";
    "origin", r = w^2, for fractional powers of r at r = lo = 0;
    "light_cone", r = lo + (hi - lo) sin(theta), for an inverse square
    root at r = hi, such as 1/sqrt(hi^2 - r^2).  An infinite hi
    (substitution "none") goes to the semi-infinite panel engine.
    """
    if substitution not in SUBSTITUTIONS:
        raise DomainError(f"unknown substitution {substitution!r}")
    sd = sphere_measure(d)

    def plain(r: float) -> float:
        return sd * g(r) * r ** (d - 1) * kernel_ghat(d, k, r)

    if substitution == "origin":
        # r = w^2 turns fractional powers of r at the origin polynomial
        def sub(w: float) -> float:
            r = w * w
            return plain(r) * 2.0 * w

        return integrate_adaptive(sub, math.sqrt(lo), math.sqrt(hi), spec)
    if substitution == "light_cone":
        # r = lo + (hi - lo) sin(theta) regularizes a 1/sqrt(hi - r) edge
        def sub(theta: float) -> float:
            r = lo + (hi - lo) * math.sin(theta)
            return plain(r) * (hi - lo) * math.cos(theta)

        return integrate_adaptive(sub, 0.0, 0.5 * math.pi, spec)
    if math.isinf(hi):
        return integrate_semi_infinite(plain, lo, spec)
    return integrate_adaptive(plain, lo, hi, spec)


def _radial_integral(dim: Dimension, profile: RadialProfile, k: float,
                     spec: QuadratureSpec) -> IntegralResult:
    """S_d * integral of profile(r) r^{d-1} ghat_d(k, r) over the support."""
    d = dim.d
    if math.isinf(profile.support_upper) and k > 0.0 and (
            profile.decay_class == "algebraic"
            or (profile.decay_class == "exponential" and k >= _OSC_WAVENUMBER)):
        # slowly decaying or rapidly oscillating tail: cell-by-cell between
        # kernel zeros with acceleration of the alternating partial sums
        sd = sphere_measure(dim)
        if d == 1:
            kernel = OscillatoryKernel("cos", k)
            envelope = lambda r: sd * profile.eval(r)
        elif d == 3:
            kernel = OscillatoryKernel("sin", k)
            envelope = lambda r: sd * profile.eval(r) * r / k
        else:
            nu = 0.5 * d - 1.0
            scale = (2.0 * math.pi) ** (0.5 * d)
            kernel = OscillatoryKernel("bessel_j", k, nu)

            def envelope(r: float) -> float:
                if r == 0.0:
                    return 0.0
                return (scale * profile.eval(r) * r ** (d - 1)
                        * (k * r) ** (1.0 - 0.5 * d))

        return integrate_oscillatory(envelope, kernel, 0.0, spec)
    return radial_quadrature(d, profile.eval, k, 0.0, profile.support_upper,
                             "none", spec)


def forward_result(dim: Dimension, profile: RadialProfile, k: float,
                   spec: QuadratureSpec) -> IntegralResult:
    """Forward transform with the full IntegralResult (no raise on failure)."""
    if k < 0.0:
        raise DomainError("wavenumber must be nonnegative")
    return _radial_integral(dim, profile, k, spec)


def inverse_result(dim: Dimension, image: RadialProfile, r: float,
                   spec: QuadratureSpec) -> IntegralResult:
    """Inverse transform with the full IntegralResult (no raise on failure)."""
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
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
