"""Closed-form solution of the 2-D isotropic radiative transfer problem.

A point flash of energy A0 at the origin propagates at celerity c with
extinction length ell and isotropic in-scattering.  The angular average
i(r, t) of the radiance splits into an unscattered ballistic shell
delta(r - c t)/r and a smooth multiply-scattered part supported inside
the light cone:

    i(r, t) = A0/(2 pi) * [ delta(r - c t)/r
              + exp(sqrt(c^2 t^2 - r^2)/ell) / (ell sqrt(c^2 t^2 - r^2))
                * Theta(c t - r) ] * exp(-c t / ell).

In the Fourier-Laplace domain the same solution is the resolvent of the
free propagator gbar(k, s) = 1/sqrt(s^2 + c^2 k^2):

    ihat(k, s) = A0 gbar(k, s + c/ell) / (1 - (c/ell) gbar(k, s + c/ell)),

and the two forms are connected by the proper-time transform pair (row
2.1 of the registry at d = 2) applied to f with image s/(s - c/ell).
The mixed-domain harness verifies that chain numerically.  Its space
side is the d = 2 radial transform of i(., t): the analytic transform
of the atom plus one radial_fourier.radial_quadrature of the smooth part
under the light-cone substitution r = c t sin(theta).  The energy check
is the k = 0 value of the same transform.

The paper-facing convention sets c = 1 in gbar; here the celerity is
restored explicitly so TransportParams carries honest physical units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .laplace import TimeOriginal, inverse_laplace, sqrt_s2k2
from .numerics import DomainError, QuadratureSpec
from .radial_fourier import QuadratureError, kernel_ghat, radial_quadrature
from .verify import VerificationReport, _compare, _settings


class PoleError(ValueError):
    """The resolvent denominator vanishes at the requested (k, s)."""


@dataclass(frozen=True)
class TransportParams:
    """Wave celerity c, extinction length ell, initial energy A0."""

    c: float = 1.0
    ell: float = 1.0
    A0: float = 1.0

    def __post_init__(self) -> None:
        if not (self.c > 0.0 and self.ell > 0.0 and self.A0 > 0.0):
            raise DomainError("transport parameters must be positive")


@dataclass(frozen=True)
class IntensityValue:
    """Pointwise intensity split into smooth part and ballistic atom weight.

    The atom lives at r = c t; smooth is zero outside the light cone.
    """

    smooth: float
    ballistic_weight: float


def _smooth(p: TransportParams, ct: float, damping: float, r: float) -> float:
    """Smooth part of i at radius r < c t, damping e^(-c t/ell)."""
    q = math.sqrt(ct * ct - r * r)
    return p.A0 / (2.0 * math.pi) * math.exp(q / p.ell) / (p.ell * q) * damping


def _transform(p: TransportParams, k: float, t: float,
               spec: QuadratureSpec) -> float:
    """d = 2 radial Fourier transform of i(., t) at wavenumber k.

    The ballistic atom transforms analytically to A0 ghat_2(k, c t)
    e^(-c t/ell); the smooth part is one radial quadrature over the light
    cone (0, c t).
    """
    if not t > 0.0:
        raise DomainError("time must be positive")
    ct = p.c * t
    damping = math.exp(-ct / p.ell)
    res = radial_quadrature(2, lambda r: _smooth(p, ct, damping, r), k, 0.0,
                            ct, "light_cone", spec)
    if not res.converged:
        raise QuadratureError(
            f"smooth-part transform did not converge at (k,t)=({k},{t})")
    return p.A0 * kernel_ghat(2, k, ct) * damping + float(res.value)


def intensity(p: TransportParams, r: float, t: float) -> IntensityValue:
    """Closed-form i(r, t) away from the shell r = c t."""
    if not t > 0.0:
        raise DomainError("time must be positive")
    if r < 0.0:
        raise DomainError("radius must be nonnegative")
    ct = p.c * t
    if abs(r - ct) <= 1e-9 * max(1.0, ct):
        raise DomainError(
            f"r = c t = {ct:.6g} sits on the ballistic shell; the pointwise "
            "smooth value is undefined there")
    damping = math.exp(-ct / p.ell)
    weight = p.A0 / (2.0 * math.pi) * damping
    if r > ct:
        return IntensityValue(0.0, weight)
    return IntensityValue(_smooth(p, ct, damping, r), weight)


def fl_greens_avg(p: TransportParams, k: float, s: complex) -> complex:
    """Directionally averaged free propagator 1/sqrt(s^2 + c^2 k^2)."""
    if k < 0.0:
        raise DomainError("wavenumber must be nonnegative")
    s = complex(s)
    value = sqrt_s2k2(s, p.c * k)
    if value == 0.0:
        raise PoleError(f"propagator singular at (k, s) = ({k}, {s})")
    return 1.0 / value


def fl_intensity(p: TransportParams, k: float, s: complex) -> complex:
    """Fourier-Laplace intensity A0 g / (1 - (c/ell) g), g shifted by c/ell."""
    g = fl_greens_avg(p, k, s + p.c / p.ell)
    denom = 1.0 - (p.c / p.ell) * g
    if abs(denom) < 1e-14:
        raise PoleError(
            f"resolvent pole encountered at (k, s) = ({k}, {s})")
    return p.A0 * g / denom


def resolvent_original_scaled(p: TransportParams) -> TimeOriginal:
    """Original of s/(s - c/ell) for explicit transport parameters."""
    rate = p.c / p.ell
    return TimeOriginal(
        eval=lambda t: rate * math.exp(rate * t),
        sigma0=rate,
        atom_location=0.0,
        atom_weight=1.0,
    )


def check_energy(p: TransportParams, t: float, spec: QuadratureSpec) -> float:
    """Plane integral of i(., t): the k = 0 value of its radial transform.

    Conservation demands the result equal A0 exactly for every t.
    """
    return _transform(p, 0.0, t, spec)


def verify_rte_mixed(p: TransportParams, samples: Sequence[tuple],
                     spec: Optional[QuadratureSpec] = None, nodes: int = 48,
                     tolerance: float = 1e-5) -> VerificationReport:
    """Mixed-domain check of the closed form against the FL resolvent.

    LHS'(k, t): the d = 2 radial transform of the closed form (_transform);
    RHS'(k, t): Talbot inversion of fl_intensity.
    """
    if spec is None:
        spec = QuadratureSpec()

    def sides(point: tuple) -> tuple:
        k, t = point
        return (_transform(p, k, t, spec),
                inverse_laplace(lambda s: fl_intensity(p, k, s), t, nodes,
                                branch_height=p.c * k))

    return _compare("rte2d", 2, "transport-resolvent", samples, sides,
                    (DomainError, QuadratureError, PoleError), tolerance,
                    _settings(spec, nodes))
