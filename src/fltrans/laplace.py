"""Numerical forward Laplace transform and fixed-Talbot inversion.

The forward transform integrates e^{-s t} f(t) by damped semi-infinite
quadrature along one ray t = tau e^{i alpha}, the real axis being the
alpha = 0 ray, in geometric cells of u = sqrt(rho) tau sized to the ray's
decay rate rho.  Originals that are analytic in a sector advertise it
through TimeOriginal.eval_complex; for them the ray is rotated into the
complex t-plane whenever a rotated ray decays faster than both the real
axis and rate 1; the steepest ray within 120 degrees has a closed form,
held at 90 degrees where f's own bound would grow too fast along it.
That computes the analytic continuation of the integral, which reaches
points left of the growth abscissa (the deep part of an inversion
contour) and replaces the slowly decaying real-axis integrand just right
of it.  A point s that is not finite is refused.

Inversion uses the fixed Talbot contour of Abate & Valko (2004),

    s(theta) = r * theta * (cot(theta) + i),   theta in (-pi, pi),

with the radius scaled as r = 0.30 * 2 * nodes / (5 t).  The radius
factor 0.30 keeps the e^{r t} roundoff amplification small enough
that doubling the node count still buys two orders of magnitude.  The
node angles, their cotangents and the contour weights 1 + i sigma(theta)
depend on the node count alone and are tabulated once per count; the
contour itself, each node s with its factor e^{s t}, depends on
(nodes, radius, t) and is tabulated for the 16 most recent triples, so
the inversions of one verification grid, which share a few times t
across its wavenumbers, evaluate only their images.  The theta = 0 node
s = r is the first entry of that table, weighted 1/2, so the inversion
is one sum over the table.

Branch convention: sqrt_s2k2(s, k) continues sqrt(s^2 + k^2) from the
positive real axis into the plane cut along the segment [-ik, +ik], which
is the continuation an inversion contour that encloses the segment must
see.  It is positive for real s > 0 and behaves like s (not |s|) deep in
the left half-plane.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

from .numerics import DomainError, QuadratureSpec, _nonnegative, _positive, \
    integrate_semi_infinite


class LaplaceError(RuntimeError):
    """Forward quadrature or contour inversion failed."""


@dataclass(frozen=True)
class TimeOriginal:
    """Original f(t) on t >= 0 with its growth metadata.

    sigma0 is the growth abscissa (|f(t)| <= C exp(sigma0 t)); f is
    integrated over the whole half-line t >= 0.  For evaluation left of
    sigma0 (deep inversion-contour nodes) an original analytic on the
    sector |arg z| <= 120 degrees, the one ray rotation sweeps, may
    supply eval_complex, with
    |f(z)| <= C(|z|) exp(sigma0 Re z + imag_growth |Im z|) there, C(|z|)
    growing slower than any exponential.  Entire originals qualify, and so
    does sqrt(z) e^{-z}, analytic off the negative real axis.  Refuses a
    non-finite sigma0, and an imag_growth not finite and >= 0, when built.
    """

    eval: Callable[[float], float]
    sigma0: float = 0.0
    eval_complex: Optional[Callable[[complex], complex]] = None
    imag_growth: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.sigma0):
            raise DomainError(f"sigma0 must be finite, got {self.sigma0}")
        _nonnegative("imag_growth", self.imag_growth)


def sqrt_s2k2(s: complex, k: float) -> complex:
    """sqrt(s^2 + k^2) cut along the segment [-ik, +ik].

    Matches the positive root for real s > 0 and satisfies
    Re sqrt_s2k2 -> -inf together with Re s, which is the branch a Talbot
    contour enclosing the segment requires.  Where |s| is so small next
    to k that (k/s)^2 overflows, returns the limit +-k sqrt(1 + (s/k)^2)
    with the sign the root takes just outside that range: that of Re s,
    or of -Im s on the imaginary axis.
    """
    if k == 0.0:
        return complex(s)
    s = complex(s)
    if s == 0.0:
        return complex(0.0)
    try:
        root = s * cmath.sqrt(1.0 + (k / s) ** 2)
    except OverflowError:
        root = complex(math.nan)
    if cmath.isfinite(root) or not cmath.isfinite(s):
        return root
    sign = s.real if s.real != 0.0 else -s.imag
    return math.copysign(k, sign) * cmath.sqrt(1.0 + (s / k) ** 2)


_MARGIN = 0.1
_MAX_RAY_ANGLE = math.radians(120.0)


def _fused_product(value, exponent: complex) -> complex:
    """value * exp(exponent) for an exponent whose exp alone overflows.

    Fuses the factors through log space, so the damped product is
    returned whenever it is representable (a decaying original against a
    contour node with Re s < 0).
    """
    if value == 0.0:
        return 0.0 + 0.0j
    combined = cmath.log(complex(value)) + exponent
    if combined.real > 700.0:
        raise LaplaceError(
            "damped Laplace integrand overflows; growth abscissa contract "
            "violated")
    return cmath.exp(combined)


def _best_ray(f: TimeOriginal, s: complex) -> tuple[float, float]:
    # along t = tau e^{i alpha}, alpha = -beta sign(Im s), |e^{-s t} f(t)|
    # decays at x cos(beta) + c sin(beta), a sinusoid whose maximum over
    # 0 <= beta <= _MAX_RAY_ANGLE is at beta = atan2(c, x) clamped to it
    x = s.real - f.sigma0
    c = abs(s.imag) - f.imag_growth
    if x < 0.0 and c <= 0.0:
        # left of sigma0 within |Im s| <= g, where the image's singularities
        # lie, the sign of Im s picks no side of a cut, and no ray within
        # 90 degrees decays: the real axis, which diverges, refuses s
        return 0.0, x
    beta = min(max(math.atan2(c, x), 0.0), _MAX_RAY_ANGLE)
    cos, sin = math.cos(beta), math.sin(beta)
    decay = x * cos + c * sin
    # past 90 degrees f's own bound may grow along the ray, at
    # sigma0 cos(beta) + g sin(beta); faster than 4 times the decay, f
    # overflows inside the cells the quadrature reaches.  The sinusoid
    # rises up to its peak, so 90 degrees, decay c, is the next best ray
    if (beta > 0.5 * math.pi
            and f.sigma0 * cos + f.imag_growth * sin > 4.0 * decay):
        beta, decay = 0.5 * math.pi, c
    return -math.copysign(beta, s.imag), decay


def forward_laplace(f: TimeOriginal, s: complex, spec: QuadratureSpec) -> complex:
    """Laplace transform of f at complex s by quadrature.

    Requires Re s > sigma0 + margin unless f supplies eval_complex.  With
    eval_complex the integration ray is rotated into the sector of
    analyticity, returning the analytic continuation, whenever the
    steepest ray with |alpha| <= 120 degrees (in closed form) decays faster
    than both the real axis and rate 1, and left of sigma0 + margin
    whenever it decays faster than 0.25.  Past 90 degrees f itself may
    grow along the ray; the ray is held at 90 degrees where f's bound
    would grow faster than 4 times the ray's decay rate.  Left of sigma0
    within |Im s| <= imag_growth, a real s among them, no ray is taken:
    the image's singularities lie there, and the sign of Im s, which picks
    the side the ray leans to, picks no side of a cut.  Otherwise the real
    axis is integrated as it stands, also at large |Im s|, where the
    geometric cells resolve the oscillation at the cost of many more
    evaluations.  The cells are sized to the ray's decay rate rho: they
    are the geometric cells of u = sqrt(rho) tau.
    Refuses an s that is not finite, or that no ray reaches, with
    DomainError.  Raises LaplaceError where f overflows inside the range
    the quadrature reaches, or underflows under an overflowing damping
    factor before its damped integrand is negligible.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"s must be finite, got {s}")
    decay = (s - f.sigma0).real
    alpha, ray_decay = (_best_ray(f, s) if f.eval_complex is not None
                        else (0.0, -math.inf))
    if decay > _MARGIN and ray_decay <= max(decay, 1.0):
        # the real axis is the alpha = 0 ray
        evaluate, ray, ray_decay = f.eval, 1.0, decay
    elif f.eval_complex is None:
        raise DomainError(
            f"Re s = {s.real:.6g} is not above sigma0 = {f.sigma0:.6g} "
            "and the original carries no analytic continuation evaluator")
    elif ray_decay <= 0.25:
        raise DomainError(f"no convergent integration ray for s={s}")
    else:
        evaluate, ray = f.eval_complex, cmath.exp(1j * alpha)
    # t = step u: the cell edges u = 1, 3, 7, ... scale as 1 / sqrt(rho)
    step = ray / math.sqrt(ray_decay)
    minus_s = -s

    def integrand(u: float) -> complex:
        z = step * u
        try:
            value = evaluate(z) * step
        except OverflowError:
            raise LaplaceError(
                f"original overflows at t={z}, inside the range the "
                "quadrature reaches") from None
        exponent = minus_s * z
        if exponent.real <= 600.0:
            return cmath.exp(exponent) * value
        # an original that underflowed to 0 under an overflowing damping
        # factor hides a product that may still exceed e^{-32} ~ 1e-14
        if value == 0.0 and ray_decay * abs(z) < 32.0:
            raise LaplaceError(
                f"original underflows at t={z} where the damped integrand "
                "is not negligible")
        return _fused_product(value, exponent)

    res = integrate_semi_infinite(integrand, 0.0, spec)
    if not res.converged:
        raise LaplaceError(f"forward transform did not converge at s={s}")
    return complex(res.value)


# Skip Talbot nodes whose weight e^{s t} cannot matter: e^{-60} ~ 9e-27
# relative to the contour scale (valid for images bounded on the contour).
_NODE_EXPONENT_FLOOR = -60.0
_RADIUS_FACTOR = 0.30
_EXPONENT_CEILING = math.log(sys.float_info.max)  # e^x is finite up to it


@functools.lru_cache(maxsize=16, typed=True)
def _talbot_nodes(nodes: int) -> tuple:
    """(theta, cot theta, 1 + i sigma(theta)) for the nodes j = 1 .. nodes-1.

    theta = j pi / nodes and sigma(theta) = theta + (theta cot theta - 1)
    cot theta; the table depends on nodes alone, so each count is built once.
    """
    table = []
    for j in range(1, nodes):
        theta = j * math.pi / nodes
        cot = math.cos(theta) / math.sin(theta)
        sigma = theta + (theta * cot - 1.0) * cot
        table.append((theta, cot, complex(1.0, sigma)))
    return tuple(table)


@functools.lru_cache(maxsize=16)
def _talbot_contour(nodes: int, r: float, t: float) -> tuple:
    """(s, e^{s t}, weight) for each node of the contour of radius r at time t.

    First the theta = 0 node (r, e^{r t} / 2, 1), then (s, e^{s t},
    1 + i sigma(theta)) for each node of _talbot_nodes(nodes) whose exponent
    Re(s t) clears _NODE_EXPONENT_FLOOR.  The table depends on
    (nodes, r, t) alone, not on the image.
    """
    contour = [(complex(r, 0.0), 0.5 * cmath.exp(r * t), 1.0)]
    for theta, cot, weight in _talbot_nodes(nodes):
        # s = r theta (cot theta + i), formed without a complex product
        r_theta = r * theta
        s = complex(r_theta * cot, r_theta)
        st = s * t
        if st.real < _NODE_EXPONENT_FLOOR:
            continue
        contour.append((s, cmath.exp(st), weight))
    return tuple(contour)


def _check_nodes(nodes: int) -> None:
    try:
        count = operator.index(nodes)
    except TypeError:
        raise DomainError(
            f"the Talbot node count must be an integer, got {nodes!r}") from None
    if count < 4:
        raise DomainError("at least 4 Talbot nodes are required")


def inverse_laplace(image: Callable[[complex], complex], t: float,
                    nodes: int = 48, *, branch_height: float = 0.0) -> float:
    """Fixed-Talbot inversion of the Laplace image s -> F(s) at time t > 0.

    The contour radius is 0.30 * 2 * nodes / (5 t) and grows with nodes,
    so accuracy improves geometrically in `nodes` for images analytic off
    the negative real axis.  branch_height raises the contour so that
    singularities with |Im s| up to that height stay enclosed (the sqrt
    branch segment of transform-pair images).  The nodes s, their factors
    e^{s t} and weights come from a table built once per (nodes, radius,
    t) and kept for the 16 most recent triples; only the image values
    change from call to call.

    Refuses with DomainError a time t that is not finite and positive, a
    branch_height that is not finite and >= 0, a node count that is not an
    integer >= 4, and a contour radius r whose e^{r t} overflows a float
    (r t > 709.78).  Non-finite image values on the contour abort with
    LaplaceError naming the first such node, as does a contour sum that
    overflows.  The sum is checked once, after the last node; only a
    non-finite sum evaluates the image again, node by node, to find the
    culprit.
    """
    _positive("inversion time", t)
    _nonnegative("branch height", branch_height)
    _check_nodes(nodes)
    r = max(_RADIUS_FACTOR * 2.0 * nodes / (5.0 * t), 1.15 * branch_height)
    if r * t > _EXPONENT_CEILING:  # the base node's factor e^{r t} overflows
        raise DomainError(f"contour radius overflows e^(r t) at r = {r}, "
                          f"t = {t}, branch_height = {branch_height}")
    contour = _talbot_contour(nodes, r, t)
    total = 0.0
    for s, e, weight in contour:
        total += (e * image(s) * weight).real
    if not math.isfinite(total):
        # a non-finite image value poisons the sum; name the first one
        for s, _, _ in contour:
            fs = complex(image(s))
            if not (math.isfinite(fs.real) and math.isfinite(fs.imag)):
                raise LaplaceError(f"image not finite at contour node s={s}")
        raise LaplaceError(f"contour sum not finite at t={t}")
    return (r / nodes) * total


def roundtrip_check(f: TimeOriginal, t_grid: Sequence[float], nodes: int,
                    spec: QuadratureSpec) -> float:
    """Max relative error of inverse_laplace(forward_laplace(f, .)) on a grid.

    Talbot inversion amplifies image errors by roughly e^{r t}, so the
    forward hop runs with tolerances clamped to near machine precision
    regardless of the requested spec; the contour clears f.imag_growth.
    """
    tight = replace(spec,
                    abs_tol=min(spec.abs_tol, 1e-14),
                    rel_tol=min(spec.rel_tol, 1e-13))
    image = lambda s: forward_laplace(f, s, tight)
    worst = 0.0
    for t in t_grid:
        got = inverse_laplace(image, t, nodes, branch_height=f.imag_growth)
        want = f.eval(t)
        worst = max(worst, abs(got - want) / max(abs(want), 1e-12))
    return worst
