"""Special functions and quadrature engines.

Scalar, pure-Python kernels used by every other module:

* Bessel functions J_nu for integer and half-integer order
  (power series, downward Miller recurrence, Hankel's asymptotic
  expansion, trigonometric closed forms; see Abramowitz & Stegun ch. 9).
  The cost of an integer-order call is bounded independently of x.
* Gamma function wrapper with a strict positive-real domain.
* Adaptive Gauss-Kronrod (G7/K15) quadrature on finite intervals.
* Semi-infinite quadrature by geometrically growing panels.
* Oscillatory semi-infinite quadrature: integration between consecutive
  kernel zeros plus Wynn epsilon acceleration of the partial sums.

All functions are pure and reentrant; the dataclasses are frozen, so
values may be shared freely across threads.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass


class DomainError(ValueError):
    """Argument outside the contract of a numerics operation."""


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy/effort budget shared by the quadrature engines.

    abs_tol / rel_tol control the convergence target, max_subdivisions
    bounds adaptive bisection, max_oscillation_cells bounds the number of
    kernel-zero cells before acceleration gives up.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000
    max_oscillation_cells: int = 200

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")
        if self.max_oscillation_cells < 4:
            raise DomainError("max_oscillation_cells must be >= 4")


@dataclass(frozen=True)
class IntegralResult:
    """Value plus an honest error estimate.

    ``converged`` is set only when ``error_estimate`` meets the spec
    tolerance; a failed integration is reported here, never by silently
    returning a wrong value.
    """

    value: complex | float
    error_estimate: float
    converged: bool
    evaluations: int


@dataclass(frozen=True)
class OscillatoryKernel:
    """Descriptor for the oscillating factor of a semi-infinite integrand.

    kind is one of "cos", "sin", "bessel_j"; omega is the frequency of the
    kernel argument (kernel(x) = cos(omega x) etc.); order is the Bessel
    order for kind "bessel_j".
    """

    kind: str
    omega: float
    order: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("cos", "sin", "bessel_j"):
            raise DomainError(f"unknown kernel kind {self.kind!r}")
        if not self.omega > 0.0:
            raise DomainError("kernel frequency must be positive")


# ---------------------------------------------------------------------------
# Bessel J of integer and half-integer order
# ---------------------------------------------------------------------------

def gamma_fn(x: float) -> float:
    """Gamma(x) for x > 0 (relative accuracy ~1e-15 up to x = 50)."""
    if not x > 0.0:
        raise DomainError(f"gamma_fn requires x > 0, got {x}")
    return math.gamma(x)


def _bessel_series(nu: float, x: float) -> float:
    # Ascending series, A&S 9.1.10.  Accurate for x <= 8 at integer order
    # (roundoff grows like eps * I_nu(x)) and for x < 1 at any order.
    half = 0.5 * x
    term = half**nu / math.gamma(nu + 1.0)
    total = term
    m = 0
    while True:
        m += 1
        term *= -half * half / (m * (nu + m))
        total += term
        if m > 4 and abs(term) <= 1e-18 * (abs(total) + 1e-300):
            return total
        if m > 400:  # unreachable for the supported range
            return total


def _bessel_miller(n: int, x: float) -> float:
    # Downward recurrence normalized by J0 + 2 sum J_{2k} = 1 (A&S 9.1.46),
    # stable for all x, used for x > 8 where the series loses digits.
    start = int(x + 16 + 10.0 * math.sqrt(x + 1.0))
    if start % 2:
        start += 1
    jp = 0.0
    j = 1e-30
    norm = 0.0
    out = None
    for m in range(start, 0, -1):
        jm = (2.0 * m / x) * j - jp
        jp, j = j, jm
        if abs(j) > 1e10:
            j *= 1e-10
            jp *= 1e-10
            norm *= 1e-10
            if out is not None:
                out *= 1e-10
        if m - 1 == n:
            out = j
        if (m - 1) % 2 == 0 and m - 1 > 0:
            norm += j
    norm = 2.0 * norm + j
    return (out if out is not None else j) / norm


def _bessel_hankel_asymptotic(nu: float, x: float) -> float:
    # Hankel's expansion (A&S 9.2.5) summed until its terms fall below
    # 1e-17.  Term k is term_{k-1} * (4 nu^2 - (2k-1)^2) / (k 8x); P takes
    # the even terms and Q the odd ones, with alternating signs.  The
    # smallest term is about e^{-2x}, so for x >= 20 + nu^2 the sum stops
    # before the series starts to diverge.  The phase x - (nu/2 + 1/4) pi
    # is expanded by the angle-sum formulas, so cos and sin reduce x exactly.
    mu = 4.0 * nu * nu
    w = 8.0 * x
    p, q = 1.0, 0.0
    term = 1.0
    k = 1
    while abs(term) >= 1e-17:
        term *= (mu - (2 * k - 1) ** 2) / (k * w)
        q += term
        term *= -(mu - (2 * k + 1) ** 2) / ((k + 1) * w)
        p += term
        k += 2
    c = math.pi * ((0.5 * nu + 0.25) % 2.0)
    cos_c, sin_c = math.cos(c), math.sin(c)
    cos_x, sin_x = math.cos(x), math.sin(x)
    cos_chi = cos_x * cos_c + sin_x * sin_c
    sin_chi = sin_x * cos_c - cos_x * sin_c
    return math.sqrt(2.0 / (math.pi * x)) * (p * cos_chi - q * sin_chi)


def _bessel_half_trig(nu: float, x: float) -> float:
    # Closed trigonometric forms J_{-1/2}, J_{1/2} plus upward recurrence
    # (A&S 10.1.1, 10.1.11 in spherical form).  Used for x >= 1 where the
    # recurrence is stable for the low orders supported here.
    c = math.sqrt(2.0 / (math.pi * x))
    jm = c * math.cos(x)
    j = c * math.sin(x)
    if nu == -0.5:
        return jm
    order = 0.5
    while order < nu - 0.25:
        jm, j = j, (2.0 * order / x) * j - jm
        order += 1.0
    return j


def bessel_j(order: float, x: float) -> float:
    """Bessel function J_order(x) for order in {n, n + 1/2 : n >= -1}, x >= 0.

    Integer orders n use the ascending power series for x <= 8, the
    normalized downward (Miller) recurrence on (8, 20 + n^2), and Hankel's
    asymptotic expansion summed to convergence for x >= 20 + n^2, so the
    cost of a call is bounded independently of x (at most about 100
    recurrence steps for n <= 3).  Half-integer orders use the closed
    trigonometric forms (series below x = 1 to avoid cancellation).
    Absolute accuracy is ~1e-15 for x > 8 (checked against
    scipy.special.jv up to x = 1e5 for n <= 12) and ~1e-14 below.
    """
    if x < 0.0 or not math.isfinite(x):
        raise DomainError(f"bessel_j requires finite x >= 0, got {x}")
    doubled = 2.0 * order
    if abs(doubled - round(doubled)) > 1e-12 or order < -1.0:
        raise DomainError(f"unsupported Bessel order {order}")
    if abs(order - round(order)) < 1e-12:
        n = int(round(order))
        if n == -1:  # J_{-1} = -J_1
            return -bessel_j(1.0, x)
        if x == 0.0:
            return 1.0 if n == 0 else 0.0
        if x <= 8.0:
            return _bessel_series(float(n), x)
        if x >= 20.0 + n * n:
            return _bessel_hankel_asymptotic(float(n), x)
        return _bessel_miller(n, x)
    # half-integer
    if x == 0.0:
        return math.inf if order < 0.0 else 0.0
    if x < 1.0:
        return _bessel_series(order, x)
    return _bessel_half_trig(order, x)


def bessel_j_zero(order: float, n: int) -> float:
    """n-th positive zero of J_order (n >= 1), McMahon expansion + Newton.

    Exact trigonometric zeros are returned for order +-1/2.
    """
    if n < 1:
        raise DomainError("zero index must be >= 1")
    if order == 0.5:
        return n * math.pi
    if order == -0.5:
        return (n - 0.5) * math.pi
    # McMahon's expansion, A&S 9.5.12
    beta = (n + 0.5 * order - 0.25) * math.pi
    mu = 4.0 * order * order
    z = beta - (mu - 1.0) / (8.0 * beta) \
        - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * beta) ** 3)
    for _ in range(4):
        jz = bessel_j(order, z)
        # J'_nu = J_{nu-1} - (nu / z) J_nu (A&S 9.1.27)
        jp = bessel_j(order - 1.0, z) - (order / z) * jz
        if jp == 0.0:
            break
        dz = jz / jp
        z -= dz
        if abs(dz) < 1e-14 * z:
            break
    return z


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# G7/K15 nodes and weights (QUADPACK dqk15).  All nodes are interior, so
# integrable endpoint singularities are never evaluated.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16


def _gk15(f, a: float, b: float):
    """One G7/K15 panel: returns (K15 value, error estimate, resabs)."""
    center = 0.5 * (a + b)
    halflen = 0.5 * (b - a)
    fc = f(center)
    resg = _WG[3] * fc
    resk = _WGK[7] * fc
    resabs = _WGK[7] * abs(fc)
    fv = [0.0] * 15
    fv[7] = fc
    for i in range(7):
        dx = halflen * _XGK[i]
        f1 = f(center - dx)
        f2 = f(center + dx)
        fv[i] = f1
        fv[14 - i] = f2
        resk += _WGK[i] * (f1 + f2)
        resabs += _WGK[i] * (abs(f1) + abs(f2))
        if i % 2 == 1:  # K15 nodes 1,3,5 coincide with G7 nodes
            resg += _WG[i // 2] * (f1 + f2)
    mean = 0.5 * resk
    resasc = _WGK[7] * abs(fc - mean)
    for i in range(7):
        resasc += _WGK[i] * (abs(fv[i] - mean) + abs(fv[14 - i] - mean))
    resk *= halflen
    resg *= halflen
    resabs *= abs(halflen)
    resasc *= abs(halflen)
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > 1e-290:
        err = max(err, 50.0 * _EPS * resabs)
    return resk, err, resabs


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec) -> IntegralResult:
    """Adaptive G7/K15 bisection of f over the open interval (a, b).

    f may return real or complex values; endpoints are never evaluated.
    Non-convergence is reported through converged=False, never by a
    silently wrong value.
    """
    if not a <= b:
        raise DomainError(f"integrate_adaptive requires a <= b, got ({a}, {b})")
    if a == b:
        return IntegralResult(0.0, 0.0, True, 0)
    val, err, _ = _gk15(f, a, b)
    evals = 15
    # heap entries: (-error, counter, a, b, value, error); counter breaks ties
    count = 0
    cells = [(-err, count, a, b, val, err)]
    total = val
    total_err = err
    while True:
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol:
            return IntegralResult(total, total_err, True, evals)
        if len(cells) >= spec.max_subdivisions or total_err < 1e3 * _EPS * abs(total):
            return IntegralResult(total, total_err, total_err <= tol, evals)
        _, _, ca, cb, cval, cerr = heapq.heappop(cells)
        mid = 0.5 * (ca + cb)
        if mid <= ca or mid >= cb:  # interval exhausted at machine resolution
            count += 1
            heapq.heappush(cells, (0.0, count, ca, cb, cval, cerr))
            continue
        lval, lerr, _ = _gk15(f, ca, mid)
        rval, rerr, _ = _gk15(f, mid, cb)
        evals += 30
        total += lval + rval - cval
        total_err += lerr + rerr - cerr
        count += 1
        heapq.heappush(cells, (-lerr, count, ca, mid, lval, lerr))
        count += 1
        heapq.heappush(cells, (-rerr, count, mid, cb, rval, rerr))


# tail-magnitude cutoff of the semi-infinite panels
_TRUNCATION_THRESHOLD = 1e-14


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec) -> IntegralResult:
    """Integral of a decaying f over (a, inf) by geometric panels.

    Successive panels double in width (capped at 64) and are handed to
    integrate_adaptive; the scan stops once two consecutive panel
    contributions fall below tolerance.  |f| must eventually decay below
    _TRUNCATION_THRESHOLD and keep decaying (caller contract).
    """
    total = 0.0  # promotes to complex automatically for complex integrands
    total_err = 0.0
    evals = 0
    lo = a
    width = 1.0
    small_streak = 0
    prev_mag = math.inf
    grow_streak = 0
    for _ in range(100):
        hi = lo + width
        part = integrate_adaptive(f, lo, hi, spec)
        evals += part.evaluations
        total += part.value
        total_err += part.error_estimate
        mag = abs(part.value)
        tol = max(_TRUNCATION_THRESHOLD, spec.abs_tol,
                  spec.rel_tol * abs(total))
        if mag <= tol:
            small_streak += 1
            if small_streak >= 2:
                return IntegralResult(total, total_err + mag, True, evals)
        else:
            small_streak = 0
        if mag > prev_mag * 1.2:
            grow_streak += 1
            if grow_streak >= 4:  # tail is not decaying: caller contract broken
                return IntegralResult(total, total_err + mag, False, evals)
        else:
            grow_streak = 0
        prev_mag = mag
        lo = hi
        width = min(2.0 * width, 64.0)
    return IntegralResult(total, total_err + prev_mag, False, evals)


# ---------------------------------------------------------------------------
# Oscillatory integrals: zero-partitioned cells + Wynn epsilon acceleration
# ---------------------------------------------------------------------------

def _wynn_epsilon(sums):
    """Best even-column Wynn epsilon estimate for a partial-sum sequence.

    Wynn (1956).  Degenerate differences mean the sequence (or an even
    transformed column) has already converged at machine level; the value
    is returned directly rather than dividing by ~0.
    """
    scale = max(abs(s) for s in sums) + 1e-300
    cur = list(sums)
    prev = [0.0] * (len(sums) + 1)
    best = cur[-1]
    col = 0
    while len(cur) >= 2:
        nxt = []
        for j in range(len(cur) - 1):
            diff = cur[j + 1] - cur[j]
            if diff == 0.0 or (col % 2 == 0 and abs(diff) <= 1e-16 * scale):
                # even columns hold sum estimates; odd columns hold
                # reciprocal differences where a tie just ends the table
                return cur[j + 1] if col % 2 == 0 else best
            nxt.append(prev[j + 1] + 1.0 / diff)
        if any(not math.isfinite(abs(v)) for v in nxt):
            return best
        prev, cur = cur, nxt
        col += 1
        if col % 2 == 0 and cur and math.isfinite(abs(cur[-1])):
            best = cur[-1]
    return best


def _kernel_zero(kernel: OscillatoryKernel, n: int) -> float:
    if kernel.kind == "sin":
        return n * math.pi / kernel.omega
    if kernel.kind == "cos":
        return (n - 0.5) * math.pi / kernel.omega
    return bessel_j_zero(kernel.order, n) / kernel.omega


def _kernel_value(kernel: OscillatoryKernel, x: float) -> float:
    if kernel.kind == "sin":
        return math.sin(kernel.omega * x)
    if kernel.kind == "cos":
        return math.cos(kernel.omega * x)
    return bessel_j(kernel.order, kernel.omega * x)


def integrate_oscillatory(envelope, kernel: OscillatoryKernel, a: float,
                          spec: QuadratureSpec) -> IntegralResult:
    """Integral of envelope(x) * kernel(x) over (a, inf).

    The integrand is integrated cell by cell between consecutive kernel
    zeros and the alternating partial-sum sequence is accelerated with the
    Wynn epsilon algorithm, which handles the slowly decaying envelopes of
    inverse radial transforms.  Convergence of the raw sums (fast-decaying
    envelopes) is also accepted directly.
    """
    if a < 0.0:
        raise DomainError("oscillatory integrals start at a >= 0")
    f = lambda x: envelope(x) * _kernel_value(kernel, x)
    n = 1
    while _kernel_zero(kernel, n) <= a + 1e-300:
        n += 1
    first = integrate_adaptive(f, a, _kernel_zero(kernel, n), spec)
    evals = first.evaluations
    total = first.value
    cell_err = first.error_estimate
    sums = [total]
    prev_accel = None
    for c in range(spec.max_oscillation_cells):
        lo = _kernel_zero(kernel, n)
        hi = _kernel_zero(kernel, n + 1)
        n += 1
        part = integrate_adaptive(f, lo, hi, spec)
        evals += part.evaluations
        total += part.value
        cell_err = max(cell_err, part.error_estimate)
        sums.append(total)
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        # raw convergence: two consecutive negligible cells
        if c >= 1 and abs(part.value) <= 0.1 * tol and abs(sums[-2] - sums[-3]) <= 0.1 * tol:
            return IntegralResult(total, abs(part.value) + cell_err, True, evals)
        # machine-level convergence of the raw sums
        if c >= 1 and abs(part.value) <= 5e-16 * abs(total):
            return IntegralResult(total, abs(part.value) + cell_err, True, evals)
        if len(sums) >= 6:
            accel = _wynn_epsilon(sums[-24:])
            if prev_accel is not None and math.isfinite(accel):
                delta = abs(accel - prev_accel)
                atol = max(spec.abs_tol, spec.rel_tol * abs(accel))
                if delta <= atol:
                    return IntegralResult(accel, delta + cell_err, True, evals)
            if math.isfinite(accel):
                prev_accel = accel
    best = prev_accel if prev_accel is not None else total
    gap = abs(best - total)
    return IntegralResult(best, gap + cell_err, False, evals)
