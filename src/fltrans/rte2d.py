"""Closed-form solution of the 2-D isotropic radiative transfer problem.

A point flash of energy A0 at the origin propagates at celerity c with
extinction length ell and isotropic in-scattering.  The angular average
i(r, t) of the radiance splits into an unscattered ballistic shell
delta(r - c t)/r and a smooth multiply-scattered part supported inside
the light cone:

    i(r, t) = A0/(2 pi) * [ delta(r - c t)/r
              + exp(sqrt(c^2 t^2 - r^2)/ell) / (ell sqrt(c^2 t^2 - r^2))
                * Theta(c t - r) ] * exp(-c t / ell).

The smooth part is R/q, q = sqrt(c^2 t^2 - r^2), with the regular part
R = A0/(2 pi ell) exp(-r^2/(ell (c t + q))): c t - q = r^2/(c t + q)
neither cancels nor overflows, as exp(q/ell) does past c t/ell = 709.8.

In the Fourier-Laplace domain the same solution is the resolvent of the
free propagator gbar(k, s) = 1/sqrt(s^2 + c^2 k^2):

    ihat(k, s) = A0 gbar(k, s + c/ell) / (1 - (c/ell) gbar(k, s + c/ell)),

and the two forms are connected by the proper-time transform pair (row
2.1 of the registry at d = 2) applied to f with image s/(s - c/ell),
that is f(u) = delta(u) + (c/ell) exp(c u/ell).  The atom of f at u = 0
is the ballistic shell; it enters here in closed form, never as a
Laplace original.  The mixed-domain harness verifies that chain
numerically.  Its space side is the d = 2 radial transform of i(., t):
the analytic transform of the shell plus one
radial_fourier.radial_quadrature of R under the light-cone weight
1/sqrt(c^2 t^2 - r^2), which the quadrature owns.  The energy check
is the k = 0 value of the same transform.

The paper-facing convention sets c = 1 in gbar; here the celerity is
restored explicitly so TransportParams carries honest physical units.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .laplace import _check_nodes, inverse_laplace, sqrt_s2k2
from .numerics import DomainError, QuadratureSpec, _nonnegative
from .radial_fourier import _value, edge_distance, kernel_ghat, \
    radial_quadrature
from .verify import VerificationReport, _compare, _settings


class PoleError(ArithmeticError):
    """The resolvent denominator vanishes at the requested (k, s)."""


@dataclass(frozen=True)
class TransportParams:
    """Wave celerity c, extinction length ell, initial energy A0."""

    c: float = 1.0
    ell: float = 1.0
    A0: float = 1.0

    def __post_init__(self) -> None:
        if not all(0.0 < v < math.inf for v in (self.c, self.ell, self.A0)):
            raise DomainError("transport parameters must be finite and "
                              f"positive, got c={self.c}, ell={self.ell}, "
                              f"A0={self.A0}")


@dataclass(frozen=True)
class IntensityValue:
    """Pointwise intensity split into smooth part and ballistic atom weight.

    The atom lives at r = c t; smooth is zero outside the light cone.
    """

    smooth: float
    ballistic_weight: float


def _smooth(p: TransportParams, ct: float, r: float) -> float:
    """Regular part R of the smooth part R/sqrt(c^2 t^2 - r^2), r < c t."""
    damping = math.exp(-r * r / (p.ell * (ct + edge_distance(r, ct))))
    return p.A0 / (2.0 * math.pi * p.ell) * damping


def _light_cone_radius(p: TransportParams, t: float) -> float:
    """c t, for a time t > 0 at which c^2 t^2 - r^2 stays finite."""
    ct = p.c * t
    if not (t > 0.0 and math.isfinite(ct * ct)):
        raise DomainError(
            f"time must be positive with c^2 t^2 finite, got t = {t:g} at "
            f"c = {p.c:g}")
    return ct


def _transform(p: TransportParams, k: float, t: float,
               spec: QuadratureSpec) -> float:
    """d = 2 radial Fourier transform of i(., t) at wavenumber k.

    The ballistic atom transforms analytically to A0 ghat_2(k, c t)
    e^(-c t/ell); the smooth part is one radial quadrature of its regular
    part over the light cone (0, c t) under the light-cone weight.  Since
    R <= A0/(2 pi ell) exp(-r^2/(2 ell c t)) underflows past
    r = 40 sqrt(ell c t), a light cone wider than that is integrated only
    up to it; the weight is regular there, so R/q goes under substitution
    "none".  Without the cut, at c t/ell = 1e8 no node of the first
    light-cone panel lands where R is not negligible.
    """
    ct = _light_cone_radius(p, t)
    cut = 40.0 * math.sqrt(p.ell * ct)
    if cut < ct:
        res = radial_quadrature(
            2, lambda r: _smooth(p, ct, r) / edge_distance(r, ct), k, 0.0,
            cut, "none", spec)
    else:
        res = radial_quadrature(2, lambda r: _smooth(p, ct, r), k, 0.0, ct,
                                "light_cone", spec)
    smooth = _value(res, "smooth-part transform", f"(k, t) = ({k}, {t})")
    return p.A0 * kernel_ghat(2, k, ct) * math.exp(-ct / p.ell) + smooth


def intensity(p: TransportParams, r: float, t: float) -> IntensityValue:
    """Closed-form i(r, t) away from the shell r = c t."""
    ct = _light_cone_radius(p, t)
    _nonnegative("radius", r)
    if abs(r - ct) <= 1e-9 * max(1.0, ct):
        raise DomainError(
            f"r = c t = {ct:.6g} sits on the ballistic shell; the pointwise "
            "smooth value is undefined there")
    weight = p.A0 / (2.0 * math.pi) * math.exp(-ct / p.ell)
    if r > ct:
        return IntensityValue(0.0, weight)
    return IntensityValue(_smooth(p, ct, r) / edge_distance(r, ct), weight)


def fl_greens_avg(p: TransportParams, k: float, s: complex) -> complex:
    """Directionally averaged free propagator 1/sqrt(s^2 + c^2 k^2).

    Refuses a non-finite s with DomainError, so fl_intensity does too.
    """
    _nonnegative("wavenumber", k)
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
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


def check_energy(p: TransportParams, t: float, spec: QuadratureSpec) -> float:
    """Plane integral of i(., t): the k = 0 value of its radial transform.

    Conservation demands the result equal A0 exactly for every t.
    """
    return _transform(p, 0.0, t, spec)


def verify_rte_mixed(p: TransportParams, samples: Sequence[tuple],
                     spec: QuadratureSpec = QuadratureSpec(), nodes: int = 48,
                     tolerance: float = 1e-5) -> VerificationReport:
    """Mixed-domain check of the closed form against the FL resolvent.

    LHS'(k, t): the d = 2 radial transform of the closed form (_transform);
    RHS'(k, t): Talbot inversion of fl_intensity.
    """
    _check_nodes(nodes)

    def sides(point: tuple) -> tuple:
        k, t = point
        return (_transform(p, k, t, spec),
                inverse_laplace(lambda s: fl_intensity(p, k, s), t, nodes,
                                branch_height=p.c * k))

    return _compare("rte2d", 2, "transport-resolvent", samples, sides,
                    tolerance, _settings(spec, nodes))
