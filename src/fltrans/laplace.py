"""Numerical forward Laplace transform and fixed-Talbot inversion.

The forward transform integrates e^{-s t} f(t) by damped semi-infinite
quadrature along one ray t = tau e^{i alpha}, the real axis being the
alpha = 0 ray; on the real axis it switches to the oscillatory engine
when |Im s| dominates the decay rate.  Originals that are analytic in a
sector advertise it through TimeOriginal.eval_complex; for them the ray
is rotated into the complex t-plane whenever a rotated ray decays faster
than both the real axis and rate 1.  That computes the analytic continuation of the
integral, which reaches points left of the growth abscissa (the deep part
of an inversion contour) and replaces the slowly decaying real-axis
integrand just right of it.

Inversion uses the fixed Talbot contour of Abate & Valko (2004),

    s(theta) = r * theta * (cot(theta) + i),   theta in (-pi, pi),

with the radius scaled as r = 0.30 * 2 * nodes / (5 t).  The radius
factor 0.30 keeps the e^{r t} roundoff amplification small enough
that doubling the node count still buys two orders of magnitude.

Branch convention: sqrt_s2k2(s, k) continues sqrt(s^2 + k^2) from the
positive real axis into the plane cut along the segment [-ik, +ik], which
is the continuation an inversion contour that encloses the segment must
see.  It is positive for real s > 0 and behaves like s (not |s|) deep in
the left half-plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .numerics import (
    DomainError,
    OscillatoryKernel,
    QuadratureSpec,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)


class LaplaceError(RuntimeError):
    """Forward quadrature or contour inversion failed."""


@dataclass(frozen=True)
class TimeOriginal:
    """Original f(t) on t >= 0 with growth metadata and an optional atom.

    sigma0 is the growth abscissa (|f(t)| <= C exp(sigma0 t)); an atom of
    weight atom_weight at atom_location contributes analytically.  For
    evaluation left of sigma0 (deep inversion-contour nodes) an entire
    original may supply eval_complex, valid on the sector swept by ray
    rotation, with |f(z)| <= C(|z|) exp(sigma0 Re z + imag_growth |Im z|).
    """

    eval: Callable[[float], float]
    sigma0: float = 0.0
    atom_location: Optional[float] = None
    atom_weight: Optional[float] = None
    support_upper: float = math.inf
    eval_complex: Optional[Callable[[complex], complex]] = None
    imag_growth: float = 0.0


@dataclass(frozen=True)
class LaplaceImage:
    """Image F(s), analytic for Re s > sigma0 (caller contract)."""

    eval: Callable[[complex], complex]
    sigma0: float = 0.0


def sqrt_s2k2(s: complex, k: float) -> complex:
    """sqrt(s^2 + k^2) cut along the segment [-ik, +ik].

    Matches the positive root for real s > 0 and satisfies
    Re sqrt_s2k2 -> -inf together with Re s, which is the branch a Talbot
    contour enclosing the segment requires.
    """
    if k == 0.0:
        return complex(s)
    s = complex(s)
    if s == 0.0:
        return complex(0.0)
    return s * cmath.sqrt(1.0 + (k / s) ** 2)


_MARGIN = 0.1
_RAY_ANGLES = tuple(math.radians(a) for a in
                    (0.0, 20.0, 35.0, 50.0, 65.0, 75.0, 82.0))


def _damped_product(value, exponent: complex) -> complex:
    """value * exp(exponent) without spurious intermediate overflow.

    Fuses the factors through log space when exp(exponent) alone would
    overflow but the damped product is representable (a decaying original
    against a contour node with Re s < 0).
    """
    if exponent.real <= 600.0:
        return cmath.exp(exponent) * value
    if value == 0.0:
        return 0.0 + 0.0j
    combined = cmath.log(complex(value)) + exponent
    if combined.real > 700.0:
        raise LaplaceError(
            "damped Laplace integrand overflows; growth abscissa contract "
            "violated")
    return cmath.exp(combined)


def _ray_decay(f: TimeOriginal, s: complex, alpha: float) -> float:
    # decay rate of |e^{-s t} f(t)| along the ray t = tau e^{i alpha}
    return ((s * cmath.exp(1j * alpha)).real
            - f.sigma0 * math.cos(alpha)
            - f.imag_growth * abs(math.sin(alpha)))


def _best_ray(f: TimeOriginal, s: complex) -> tuple[float, float]:
    # the angle in _RAY_ANGLES (either sign) of fastest decay, and that decay
    best_alpha, best_decay = 0.0, -math.inf
    for alpha in _RAY_ANGLES:
        for signed in (alpha, -alpha) if alpha else (0.0,):
            dec = _ray_decay(f, s, signed)
            if dec > best_decay:
                best_alpha, best_decay = signed, dec
    return best_alpha, best_decay


def forward_laplace(f: TimeOriginal, s: complex, spec: QuadratureSpec) -> complex:
    """Laplace transform of f at complex s: atom part (analytic) + quadrature.

    Requires Re s > sigma0 + margin unless f supplies eval_complex.  With
    eval_complex the integration ray is rotated into the sector of
    analyticity, returning the analytic continuation, whenever some ray
    decays faster than both the real axis and rate 1, and left of
    sigma0 + margin whenever some ray decays faster than 0.25.
    """
    s = complex(s)
    total = 0.0 + 0.0j
    if f.atom_location is not None:
        weight = f.atom_weight if f.atom_weight is not None else 1.0
        total += weight * cmath.exp(-s * f.atom_location)

    if math.isfinite(f.support_upper):
        if (-s * f.support_upper).real > 600.0:
            raise DomainError(
                f"e^(-s t) overflows on the support for s={s}")
        res = integrate_adaptive(lambda t: cmath.exp(-s * t) * f.eval(t),
                                 0.0, f.support_upper, spec)
        if not res.converged:
            raise LaplaceError(f"forward transform did not converge at s={s}")
        return total + res.value

    decay = (s - f.sigma0).real
    alpha, ray_decay = (_best_ray(f, s) if f.eval_complex is not None
                        else (0.0, -math.inf))
    if decay > _MARGIN and ray_decay <= max(decay, 1.0):
        if abs(s.imag) > 10.0 * max(1.0, decay):
            # heavily oscillatory: integrate against cos/sin kernels with
            # series acceleration
            omega = abs(s.imag)
            sign = 1.0 if s.imag > 0 else -1.0
            env = lambda t: math.exp(-s.real * t) * f.eval(t)
            re_part = integrate_oscillatory(env, OscillatoryKernel("cos", omega),
                                            0.0, spec)
            im_part = integrate_oscillatory(env, OscillatoryKernel("sin", omega),
                                            0.0, spec)
            if not (re_part.converged and im_part.converged):
                raise LaplaceError(
                    f"oscillatory forward transform did not converge at s={s}")
            return total + complex(re_part.value, -sign * im_part.value)
        # the real axis is the alpha = 0 ray
        evaluate, ray = f.eval, 1.0
    elif f.eval_complex is None:
        raise DomainError(
            f"Re s = {s.real:.6g} is not above sigma0 = {f.sigma0:.6g} "
            "and the original carries no analytic continuation evaluator")
    elif ray_decay <= 0.25:
        raise DomainError(f"no convergent integration ray for s={s}")
    else:
        evaluate, ray = f.eval_complex, cmath.exp(1j * alpha)

    def integrand(tau: float) -> complex:
        z = ray * tau
        return _damped_product(evaluate(z) * ray, -s * z)

    res = integrate_semi_infinite(integrand, 0.0, spec)
    if not res.converged:
        raise LaplaceError(f"forward transform did not converge at s={s}")
    return total + res.value


# Skip Talbot nodes whose weight e^{s t} cannot matter: e^{-60} ~ 9e-27
# relative to the contour scale (valid for images bounded on the contour).
_NODE_EXPONENT_FLOOR = -60.0
_RADIUS_FACTOR = 0.30


def inverse_laplace(image, t: float, nodes: int = 48, *,
                    branch_height: float = 0.0) -> float:
    """Fixed-Talbot inversion of a Laplace image at time t > 0.

    image is a LaplaceImage or a plain callable s -> F(s).  The contour
    radius is 0.30 * 2 * nodes / (5 t) and grows with nodes, so
    accuracy improves geometrically in `nodes` for images analytic off the
    negative real axis.  branch_height raises the contour so that
    singularities with |Im s| up to that height stay enclosed (the sqrt
    branch segment of transform-pair images).

    Non-finite image values on the contour abort with LaplaceError.
    """
    if not t > 0.0:
        raise DomainError(f"inversion time must be positive, got {t}")
    if nodes < 4:
        raise DomainError("at least 4 Talbot nodes are required")
    feval = image.eval if isinstance(image, LaplaceImage) else image
    r = max(_RADIUS_FACTOR * 2.0 * nodes / (5.0 * t), 1.15 * branch_height)
    f0 = complex(feval(complex(r, 0.0)))
    if not (math.isfinite(f0.real) and math.isfinite(f0.imag)):
        raise LaplaceError(f"image not finite at contour base s={r}")
    total = 0.5 * cmath.exp(r * t) * f0
    for j in range(1, nodes):
        theta = j * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        s = r * theta * complex(cot, 1.0)
        if (s * t).real < _NODE_EXPONENT_FLOOR:
            continue
        fs = complex(feval(s))
        if not (math.isfinite(fs.real) and math.isfinite(fs.imag)):
            raise LaplaceError(f"image not finite at contour node s={s}")
        sigma = theta + (theta * cot - 1.0) * cot
        total += (cmath.exp(s * t) * fs * complex(1.0, sigma)).real
    return (r / nodes) * total.real


def roundtrip_check(f: TimeOriginal, t_grid: Sequence[float], nodes: int,
                    spec: QuadratureSpec) -> float:
    """Max relative error of inverse_laplace(forward_laplace(f, .)) on a grid.

    Talbot inversion amplifies image errors by roughly e^{r t}, so the
    forward hop runs with tolerances clamped to near machine precision
    regardless of the requested spec.
    """
    if f.atom_location is not None:
        raise DomainError("roundtrip_check requires a smooth original")
    tight = replace(spec,
                    abs_tol=min(spec.abs_tol, 1e-14),
                    rel_tol=min(spec.rel_tol, 1e-13))
    image = lambda s: forward_laplace(f, s, tight)
    worst = 0.0
    for t in t_grid:
        got = inverse_laplace(image, t, nodes)
        want = f.eval(t)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    return worst
