"""Special functions and quadrature engines.

Scalar, pure-Python kernels used by every other module:

* Bessel functions J_nu for integer and half-integer order (see
  Abramowitz & Stegun ch. 9).  J0 and J1 come from fixed coefficient
  tables (Chebyshev series for x <= 8, modulus-phase polynomials above;
  within 1.5e-15 of scipy.special.jv).  Both order families then share
  one path from a start pair, the table J0 and J1 or the closed forms
  (J_{-1/2}, J_{1/2}): upward recurrence (x >= max(nu, 1)), the
  normalized ascending series (smaller x <= 8) or Miller's downward
  recurrence normalized against the start pair (8 < x < nu).  No call of
  order <= 8 costs more than a fixed number of operations, whatever x.
* Adaptive Gauss-Kronrod (G10/K21, as in QUADPACK's QAGS) quadrature on
  finite intervals, bisecting from one panel or, given breakpoints, from
  one panel per span between them (QAGP); one panel routine, one loop
  over its nodes, serves this rule and G7/K15.  Each panel also returns
  QUADPACK's resabs, its estimate of the integral of |f|, and each result
  the sum of it over the final partition (IntegralResult.magnitude).
* Semi-infinite quadrature by one cell loop, first cell included, over an
  iterator of cell edges, each cell bisected on the loop's panel rule:
  geometric cells (G10/K21), their edges one running sum of the widths,
  for decaying integrands, half-period cells (G7/K15) between the zeros
  of the oscillating factor for oscillatory ones.  It ends on the first
  negligible cell, the first whose magnitude is below the tolerance, or
  by Wynn epsilon acceleration while cells alternate; a cell that stopped
  on its subdivision budget leaves the sum unconverged.  The epsilon
  table is one anti-diagonal over the newest 24 partial sums, extended
  once per cell from the first alternation on and ended at its first
  degenerate difference, on the scale of the largest |sum| so far or of
  the column's own entry; a loop whose cells never alternate does no
  epsilon work.  The zeros of J_nu (bessel_j_zero) are cached.
* Gauss-Laguerre rules of 20 and 40 nodes, scaled to a decay rate the
  caller states, ahead of the geometric cells: where their two sums agree
  the cells do not run.

All functions are pure and reentrant; the dataclasses are frozen, so
values may be shared freely across threads.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass, replace
from itertools import accumulate, chain, count, pairwise, repeat


class DomainError(ValueError):
    """Argument outside the contract of a numerics operation."""


def _nonnegative(name: str, x: float) -> None:
    if not 0.0 <= x < math.inf:  # the single-value range rules refuse NaN
        raise DomainError(f"{name} must be finite and >= 0, got {x}")


def _positive(name: str, x: float) -> None:
    if not 0.0 < x < math.inf:  # also refuses NaN
        raise DomainError(f"{name} must be finite and positive, got {x}")


@dataclass(frozen=True)
class QuadratureSpec:
    """Accuracy/effort budget shared by the quadrature engines.

    abs_tol / rel_tol control the convergence target, max_subdivisions
    bounds adaptive bisection.  Tolerances must be finite and positive
    and max_subdivisions an integer >= 1: an infinite tolerance would
    mark any single panel converged, and a NaN bound no bisection.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < math.inf
                and 0.0 < self.rel_tol < math.inf):  # also refuses NaN
            raise DomainError(
                "tolerances must be finite and positive, got "
                f"abs_tol={self.abs_tol}, rel_tol={self.rel_tol}")
        if not (self.max_subdivisions >= 1
                and self.max_subdivisions % 1 == 0):  # and NaN, inf
            raise DomainError("max_subdivisions must be an integer >= 1, "
                              f"got {self.max_subdivisions}")


@dataclass(frozen=True)
class IntegralResult:
    """Value plus an honest error estimate.

    ``converged`` is set only when ``error_estimate`` meets the spec
    tolerance; a failed integration is reported here, never by silently
    returning a wrong value.  ``magnitude`` is the K21/K15 estimate of the
    integral of |f| over the final partition (QUADPACK's resabs, summed
    over the panels): an estimate, not a bound, and where it far exceeds
    |value| the value is the residue of a cancellation.
    """

    value: complex | float
    error_estimate: float
    converged: bool
    evaluations: int
    magnitude: float


# ---------------------------------------------------------------------------
# Bessel J of integer and half-integer order
# ---------------------------------------------------------------------------

def bessel_series(nu: float, x: float) -> float:
    """Normalized ascending series S_nu(x) = Gamma(nu + 1) (x/2)^{-nu} J_nu(x).

    S_nu(x) = sum_m (-x^2/4)^m / (m! (nu + 1)_m), A&S 9.1.10, for nu > -1;
    exactly 1 at x = 0.  Its roundoff grows like eps e^{x^2 / (4 (nu + 1))},
    so bessel_j sums it only for x < max(nu, 1), x <= 8.  S_nu is also the
    d-dimensional plane-wave kernel ghat_d at nu = d/2 - 1.
    """
    q = -0.25 * x * x
    total = term = 1.0
    m = 0
    while abs(term) > 1e-17 * abs(total):
        m += 1
        term *= q / (m * (nu + m))
        total += term
    return total


# Coefficient tables of J0 and J1, fitted at 50 digits and checked against
# the committed values by tools/tables.py; highest degree first.
# On x <= 8: Chebyshev series in u = x^2/32 - 1 of J0(x) and of J1(x)/x,
# each cut where the sum of the dropped coefficients falls below 2^-56.
_J0_CHEB = (
    -7.588508125447546e-16,
    4.125320595634374e-14,
    -1.9438346867370164e-12,
    7.848696314479465e-11,
    -2.679253530557673e-09,
    7.608163592418782e-08,
    -1.7619469077621507e-06,
    3.246032882100508e-05,
    -0.00046062616620627504,
    0.004819180069467605,
    -0.034893769411408884,
    0.15806710233209725,
    -0.37009499387264977,
    0.2651786132033368,
    -0.008723442352852221,
    0.15772797147489012,
)
_J1X_CHEB = (
    -2.4441972916190464e-17,
    1.4232144003513942e-15,
    -7.221755239651773e-14,
    3.160154580348003e-12,
    -1.178026622695885e-10,
    3.687133759097148e-09,
    -9.521984756750436e-08,
    1.9858774049915165e-06,
    -3.255554866857259e-05,
    0.0004050337728354822,
    -0.003646940600769276,
    0.022213639654966037,
    -0.08268049176681791,
    0.1609992623572097,
    -0.1489751450676521,
    0.08104484632565812,
)
# On x > 8: J_n(x) = sqrt(2/(pi x)) (P_n cos chi - Q_n sin chi) with
# chi = x - (n/2 + 1/4) pi; P_n and (x/8) Q_n are degree-12 polynomials in
# y = 64/x^2 (fit errors 4e-18 to 8e-18 on (0, 1]).
_P0 = (
    1.3678396453154035e-10,
    -1.0306604474712212e-09,
    3.6629024015069136e-09,
    -8.4245531125012e-09,
    1.495392574597224e-08,
    -2.4254959952447294e-08,
    4.34227969135307e-08,
    -1.0230311671096991e-07,
    3.6201997728057504e-07,
    -2.1839178876551594e-06,
    2.7380883620060993e-05,
    -0.0010986328124987458,
    1.0,
)
_Q0 = (
    -1.3997286014585423e-10,
    1.0424666918184196e-09,
    -3.6388469843710518e-09,
    8.12800461731452e-09,
    -1.3732348396133434e-08,
    2.05072413696756e-08,
    -3.232353415224249e-08,
    6.400732009223205e-08,
    -1.8162568650396286e-07,
    8.238427797976101e-07,
    -6.930786104136927e-06,
    0.00014305114745956487,
    -0.015624999999999997,
)
_P1 = (
    -1.4522620914321922e-10,
    1.0950749104743827e-09,
    -3.8963577460319895e-09,
    8.979116578314727e-09,
    -1.5993920591911708e-08,
    2.6103445624454773e-08,
    -4.722297272919564e-08,
    1.130795637698509e-07,
    -4.102909207541017e-07,
    2.5809940810959866e-06,
    -3.5203993242596556e-05,
    0.0018310546874986734,
    1.0,
)
_Q1 = (
    1.4828001705550763e-10,
    -1.1050397351796275e-09,
    3.861109714817478e-09,
    -8.63874541073952e-09,
    1.4637507717883346e-08,
    -2.197130410190454e-08,
    3.4932459624960703e-08,
    -7.011043986705707e-08,
    2.0299488261924498e-07,
    -9.505880095171816e-07,
    8.47096080742713e-06,
    -0.00020027160644386357,
    0.04687499999999999,
)


def _pairs(coef) -> tuple:
    # a table as (c_i, c_{i+1}) pairs, highest degree first, so that the
    # sums below take two steps per loop pass; a leading zero evens out an
    # odd length and leaves every sum unchanged
    coef = (0.0,) * (len(coef) % 2) + tuple(coef)
    return tuple(zip(coef[::2], coef[1::2]))


_J0_STEPS = _pairs(_J0_CHEB)
_J1X_STEPS = _pairs(_J1X_CHEB)
# (P_n and (x/8) Q_n side by side, cos c, sin c) for n = 0, 1 with
# c = (n/2 + 1/4) pi
_MODULUS_PHASE = (
    (tuple(zip(_pairs(_P0), _pairs(_Q0))),
     math.cos(0.25 * math.pi), math.sin(0.25 * math.pi)),
    (tuple(zip(_pairs(_P1), _pairs(_Q1))),
     math.cos(0.75 * math.pi), math.sin(0.75 * math.pi)),
)


def _chebyshev(steps, x: float) -> float:
    # Clenshaw sum in u = x^2/32 - 1 (x <= 8) of a series in _pairs form;
    # b0 and b1 trade places every step
    u = x * x / 32.0 - 1.0
    u2 = u + u
    b0 = b1 = 0.0
    for a, c in steps:
        b1 = u2 * b0 - b1 + a
        b0 = u2 * b1 - b0 + c
    return b0 - u * b1


def _modulus_phase(n: int, x: float) -> float:
    # J_n(x) for n in {0, 1} and x > 8, with P and Q summed by Horner's
    # rule.  The phase chi is expanded by the angle-sum formulas, so cos
    # and sin reduce x exactly.
    steps, cos_c, sin_c = _MODULUS_PHASE[n]
    y = 64.0 / (x * x)
    p = q = 0.0
    for (pa, pb), (qa, qb) in steps:
        p = (p * y + pa) * y + pb
        q = (q * y + qa) * y + qb
    q *= 8.0 / x
    cos_x, sin_x = math.cos(x), math.sin(x)
    cos_chi = cos_x * cos_c + sin_x * sin_c
    sin_chi = sin_x * cos_c - cos_x * sin_c
    return math.sqrt(2.0 / (math.pi * x)) * (p * cos_chi - q * sin_chi)


def _bessel_j0(x: float) -> float:
    if x > 8.0:
        return _modulus_phase(0, x)
    if x == 0.0:
        return 1.0
    return _chebyshev(_J0_STEPS, x)


def _bessel_j1(x: float) -> float:
    if x > 8.0:
        return _modulus_phase(1, x)
    return x * _chebyshev(_J1X_STEPS, x)


def _start_pair(nu: float, x: float) -> tuple:
    # (nu0, J_nu0(x), J_{nu0+1}(x)) at x > 0 for the order family of nu: the
    # table J0 and J1 for integer orders, the closed forms J_{-1/2} = c cos x
    # and J_{1/2} = c sin x, c = sqrt(2/(pi x)) (A&S 10.1.11), for
    # half-integer ones
    if nu % 1.0:
        c = math.sqrt(2.0 / (math.pi * x))
        return -0.5, c * math.cos(x), c * math.sin(x)
    return 0.0, _bessel_j0(x), _bessel_j1(x)


def _bessel_upward(nu: float, x: float) -> float:
    # J_nu from the start pair by the upward recurrence
    # J_{m+1} = (2m/x) J_m - J_{m-1} (A&S 9.1.27), stable for x >= nu
    m, j, jp = _start_pair(nu, x)
    while m < nu:
        m += 1.0
        j, jp = jp, (2.0 * m / x) * jp - j
    return j


def _bessel_miller(nu: float, x: float) -> float:
    # Miller's algorithm (DLMF 3.6): the downward recurrence
    # J_{m-1} = (2m/x) J_m - J_{m+1}, stable for all x, run from far above
    # max(x, nu) down to the start orders (nu0, nu0 + 1) and scaled by least
    # squares against the start pair, which is never near zero in both
    # entries.  Used for 8 < x < nu, where the series loses digits and the
    # upward recurrence is unstable.
    nu0, a, b = _start_pair(nu, x)
    top = max(x, nu)
    m = nu0 + int(top + 16.0 + 10.0 * math.sqrt(top + 1.0))
    jp, j = 0.0, 1e-30
    out = 0.0
    while m > nu0:
        jp, j = j, (2.0 * m / x) * j - jp
        m -= 1.0
        if m == nu:
            out = j
        if abs(j) > 1e10:
            j *= 1e-10
            jp *= 1e-10
            out *= 1e-10
    return out * (a * j + b * jp) / (j * j + jp * jp)


def bessel_j(order: float, x: float) -> float:
    """Bessel function J_order(x) for order in {n, n + 1/2 : n >= -1}, x >= 0.

    Orders 0 and 1 (and J_{-1} = -J_1) come from fixed coefficient tables:
    a Chebyshev series in x^2 for x <= 8 and the modulus-phase form with
    polynomial P and Q in 64/x^2 above, so a call costs the same at any x;
    their absolute error against scipy.special.jv is below 1.5e-15 on
    [0, 8] and below 1e-15 above.  Every other order nu takes one path,
    whichever its family, from a start pair (J0, J1 from the tables for
    integer orders, the closed forms of J_{-1/2}, J_{1/2} for half-integer
    ones): the upward recurrence for x >= max(nu, 1), the ascending series
    (bessel_series) for smaller x <= 8, and Miller's downward recurrence,
    normalized against the start pair, for 8 < x < nu.  Against scipy
    orders 2 to 60 and 1.5 to 59.5 agree to 1e-14 absolute on (0, 60].
    """
    _nonnegative("bessel_j argument x", x)
    if not math.isfinite(order):  # round() refuses NaN and inf
        raise DomainError(f"unsupported Bessel order {order}")
    nu = 0.5 * round(2.0 * order)
    if abs(order - nu) > 1e-12 or nu < -1.0:
        raise DomainError(f"unsupported Bessel order {order}")
    return _bessel_j(nu, x)


def _bessel_j(nu: float, x: float) -> float:  # bessel_j's branches, unchecked
    if nu == 0.0:
        return _bessel_j0(x)
    if nu == 1.0 or nu == -1.0:  # J_{-1} = -J_1
        return nu * _bessel_j1(x)
    if x == 0.0:
        return math.inf if nu < 0.0 else 0.0
    if x >= nu and x >= 1.0:
        return _bessel_upward(nu, x)
    if x <= 8.0:
        return (0.5 * x) ** nu / math.gamma(nu + 1.0) * bessel_series(nu, x)
    return _bessel_miller(nu, x)


@functools.lru_cache(maxsize=1024)
def bessel_j_zero(order: float, n: int) -> float:
    """n-th positive zero of J_order (n >= 1), McMahon expansion + Newton.

    Exact trigonometric zeros are returned for order +-1/2.  n must be an
    integral number >= 1 (3.0 counts as 3); anything else, NaN and inf
    included, is refused with DomainError.  The zeros are pure in
    (order, n), so the 1024 most recent are cached: the oscillatory
    transforms of one order ask for the same j_{nu,n} at every wavenumber.
    """
    if not (n >= 1 and n % 1 == 0):  # also refuses NaN and inf
        raise DomainError(f"zero index must be an integer >= 1, got {n}")
    n = int(n)
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

# G10/K21 nodes and weights (QUADPACK dqk21), as in QAGS: the nodes
# _XGK[1], _XGK[3], ..., _XGK[9] are shared with G10, and _XGK[10] is the
# center.  All nodes are interior, so integrable endpoint singularities
# are never evaluated.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# (node, K21 weight, G10 weight) of the nodes shared with G10
_GAUSS_NODES = tuple((_XGK[i], _WGK[i], _WG[i // 2]) for i in range(1, 10, 2))

# G7/K15 nodes and weights (QUADPACK dqk15): the nodes _XGK15[1], _XGK15[3]
# and _XGK15[5] and the center _XGK15[7] are shared with G7
_XGK15 = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK15 = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG7 = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class _GaussKronrod:
    """A Gauss-Kronrod panel rule; a call (f, a, b) returns (value, error, resabs).

    nodes holds (node, Kronrod weight, Gauss weight) of each node on one
    side of the center, shared nodes first, then the Kronrod-only ones
    with Gauss weight 0.0; center_gauss is 0.0 where the center is a
    Kronrod node only.  The value is the Kronrod sum and the error
    estimate QUADPACK's, from |Kronrod - Gauss| scaled by the spread of f;
    resabs is the Kronrod sum of |f|, QUADPACK's estimate of the integral
    of |f| over the panel.
    """

    center_kronrod: float
    center_gauss: float
    nodes: tuple

    @property
    def points(self) -> int:
        return 1 + 2 * len(self.nodes)

    def __call__(self, f, a: float, b: float):
        center = 0.5 * (a + b)
        halflen = 0.5 * (b - a)
        fc = f(center)
        wkc = self.center_kronrod
        resg = self.center_gauss * fc if self.center_gauss else 0.0
        resk = wkc * fc
        resabs = wkc * abs(fc)
        sides = []  # (Kronrod weight, f(center - dx), f(center + dx))
        for x, wk, wg in self.nodes:
            dx = halflen * x
            f1 = f(center - dx)
            f2 = f(center + dx)
            sides.append((wk, f1, f2))
            pair = f1 + f2
            if wg:
                resg += wg * pair
            resk += wk * pair
            resabs += wk * (abs(f1) + abs(f2))
        mean = 0.5 * resk
        resasc = wkc * abs(fc - mean)
        for wk, f1, f2 in sides:
            resasc += wk * (abs(f1 - mean) + abs(f2 - mean))
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


# QUADPACK's dqk21, the panel of QAGS, and dqk15, the panel of a half-period
# cell of integrate_oscillatory
_gk21 = _GaussKronrod(_WGK[10], 0.0, _GAUSS_NODES + tuple(
    (_XGK[i], _WGK[i], 0.0) for i in range(0, 10, 2)))
_gk15 = _GaussKronrod(
    _WGK15[7], _WG7[3],
    tuple((_XGK15[i], _WGK15[i], _WG7[i // 2]) for i in range(1, 7, 2))
    + tuple((_XGK15[i], _WGK15[i], 0.0) for i in range(0, 7, 2)))


def _at_roundoff(error: float, value) -> bool:
    # an error estimate at the roundoff of the value it bounds, where
    # bisection can gain nothing (QUADPACK's ier = 2)
    return error < 1e3 * _EPS * abs(value)


def _adaptive(f, a: float, b: float, spec: QuadratureSpec,
              panel: _GaussKronrod, breaks=()) -> IntegralResult:
    # integrate_adaptive with the panel rule as an argument
    if not -math.inf < a <= b < math.inf:  # also refuses NaN
        raise DomainError(f"integrate_adaptive requires finite a <= b, "
                          f"got ({a}, {b})")
    spans = list(pairwise((a, *breaks, b)))
    if not all(x <= y for x, y in spans):  # and NaN
        raise DomainError(f"breaks must be nondecreasing within "
                          f"({a}, {b}), got {tuple(breaks)}")
    # heap entries (-error, tie, a, b, value, error, resabs), ties broken in
    # push order.  An empty span (a repeated break, or a == b) adds no panel.
    tie = count()
    cells = []
    total = total_err = total_mag = 0.0
    for ca, cb in spans:
        if ca < cb:
            val, err, mag = panel(f, ca, cb)
            total += val
            total_err += err
            total_mag += mag
            cells.append((-err, next(tie), ca, cb, val, err, mag))
    heapq.heapify(cells)
    points = panel.points
    evals = points * len(cells)
    while True:
        # an infinite tol proves nothing, and no bisection mends an estimate
        # made NaN or infinite by a non-finite f or a sum past the float range
        tol = max(spec.abs_tol, spec.rel_tol * abs(total))
        if total_err <= tol < math.inf:
            return IntegralResult(total, total_err, True, evals, total_mag)
        if (len(cells) >= spec.max_subdivisions or not total_err < math.inf
                or _at_roundoff(total_err, total)):
            return IntegralResult(total, total_err, False, evals, total_mag)
        _, _, ca, cb, cval, cerr, cmag = heapq.heappop(cells)
        mid = 0.5 * (ca + cb)
        if mid <= ca or mid >= cb:
            # the worst cell is exhausted at machine resolution (QUADPACK's
            # ier = 3)
            return IntegralResult(total, total_err, False, evals, total_mag)
        lval, lerr, lmag = panel(f, ca, mid)
        rval, rerr, rmag = panel(f, mid, cb)
        evals += 2 * points
        total += lval + rval - cval
        total_err += lerr + rerr - cerr
        total_mag += lmag + rmag - cmag
        heapq.heappush(cells, (-lerr, next(tie), ca, mid, lval, lerr, lmag))
        heapq.heappush(cells, (-rerr, next(tie), mid, cb, rval, rerr, rmag))


def integrate_adaptive(f, a: float, b: float, spec: QuadratureSpec,
                       breaks=()) -> IntegralResult:
    """Adaptive G10/K21 bisection of f over the open interval (a, b).

    Each panel costs 21 evaluations of f, so each bisection costs 42.
    f may return real or complex values; endpoints are never evaluated.
    breaks, nondecreasing points within [a, b] (QUADPACK QAGP's "points"),
    split (a, b) into the initial panels, one per span between neighbouring
    edges, from which bisection of the worst panel proceeds as from the
    single panel (a, b) that no breaks give; the error estimate sums the
    panels' and the stop rules are the same.  Breaks at the phase of an
    oscillating f save the bisections that would find it: a panel that
    spans more than about 3 pi of phase cannot resolve it (see
    radial_fourier.radial_quadrature).  Non-convergence is reported
    through converged=False, never by a silently wrong value; a non-finite
    value of f, or a sum past the float range, ends it at once, unconverged.
    """
    return _adaptive(f, a, b, spec, _gk21, breaks)


# ---------------------------------------------------------------------------
# Semi-infinite integrals: one cell loop, Wynn epsilon on alternating sums
# ---------------------------------------------------------------------------

# the epsilon table's anti-diagonal spans columns 0..23: the newest 24 sums
_EPSILON_SUMS = 24


class _EpsilonTable:
    """Wynn's epsilon table (Wynn 1956) kept as one anti-diagonal.

    As in QUADPACK's dqelg, entry c is the newest entry of column c, and
    add(s) extends the diagonal by the rhombus rule new[0] = s,
    new[c + 1] = old[c - 1] + 1 / (new[c] - old[c]) with old[-1] = 0, up to
    column 23, so each entry is computed once and depends only on the
    newest 24 sums.  The new diagonal ends at its first degenerate
    difference: one that is zero, or in an even column at most
    max(1e-16 times the largest |sum| added so far, 4.4e-16 |old[c]|)
    (that column has converged at machine level, on the scale of the sums
    or of its own entries, as in dqelg), or one whose entry is not finite.
    The next diagonal can reach one column further, so the table regrows
    past a stale degeneracy.
    estimate() is the newest entry of the highest even column.
    """

    def __init__(self, sums):
        self._diagonal = []
        self._scale = 0.0  # the largest |sum| so far; a NaN sum leaves it
        for s in sums:
            self.add(s)

    def add(self, s) -> None:
        self._scale = max(self._scale, abs(s))
        limit = 1e-16 * self._scale
        new = [s]
        above = 0.0  # old[c - 1]
        for c, old in enumerate(self._diagonal[:_EPSILON_SUMS - 1]):
            diff = new[c] - old
            if diff == 0.0 or (c % 2 == 0 and abs(diff) <= max(
                    limit, 4.4e-16 * abs(old))):
                break
            entry = above + 1.0 / diff
            if not math.isfinite(abs(entry)):  # the sums may be complex
                break
            new.append(entry)
            above = old
        self._diagonal = new

    def estimate(self):
        c = len(self._diagonal) - 1
        return self._diagonal[c - c % 2]


# cells past the first before a semi-infinite integral is reported unconverged
_OSCILLATION_CELLS = 200


# Gauss-Laguerre rules of 20 and 40 nodes (Golub & Welsch 1969) as rows
# (x_i, w_i e^{x_i}), smallest node first: the weight times e^x, so that a
# rule needs no exponential.  Fitted at 60 digits and checked against the
# committed values by tools/tables.py; scipy's w e^x are off by up to
# 1.1e-13 relative at 40 nodes, which moves round-trip digits.
_LAGUERRE_20 = (
    (0.07053988969198875, 0.18108006241898925),
    (0.37212681800161146, 0.422556767878564),
    (0.9165821024832735, 0.6669095467018481),
    (1.707306531028344, 0.9153523727830737),
    (2.749199255309432, 1.169539707195546),
    (4.048925313850887, 1.431354985928206),
    (5.6151749708616165, 1.7029811379850228),
    (7.459017453671064, 1.9870158907927473),
    (9.594392869581096, 2.286635781253431),
    (12.038802546964316, 2.6058347275538334),
    (14.81429344263074, 2.949783734213951),
    (17.948895520519375, 3.3253957820093194),
    (21.47878824028501, 3.742255470589811),
    (25.451702793186904, 4.21423671025188),
    (29.93255463170061, 4.76251846149021),
    (35.013434240479, 5.421726044245574),
    (40.83305705672857, 6.254012356932421),
    (47.6199940473465, 7.387314389054435),
    (55.810795750063896, 9.15132873098748),
    (66.52441652561575, 12.893388645939996),
)
_LAGUERRE_40 = (
    (0.035700394308888383, 0.09162547115745989),
    (0.1881622831586985, 0.2134205849050121),
    (0.46269428131457646, 0.3357181166802847),
    (0.8597729639729349, 0.4585409350334976),
    (1.3800108205273371, 0.5820681657791051),
    (2.0242091359228267, 0.7064952163672193),
    (2.7933693535068165, 0.8320269030034853),
    (3.68870267790827, 0.9588781987944431),
    (4.711641146554973, 1.0872761620305498),
    (5.863850878343718, 1.217462327977781),
    (7.147247908102289, 1.3496954913567654),
    (8.564017017586163, 1.4842549297768468),
    (10.116634048451939, 1.621444162811822),
    (11.807892294004585, 1.7615953746767696),
    (13.640933712537088, 1.9050746658947997),
    (15.619285893339073, 2.0522883472617166),
    (17.746905950095663, 2.203690553245096),
    (20.02823283457489, 2.3597925385232035),
    (22.468249983498417, 2.521174140376433),
    (25.072560772426204, 2.6884980554088425),
    (27.847480009168862, 2.862527813210449),
    (30.800145739445462, 3.044150665311517),
    (33.93865708491372, 3.234407097263532),
    (37.27224588047601, 3.434529398427748),
    (40.81149282388692, 3.645992824994089),
    (44.56860317533446, 3.8705845972165167),
    (48.55776353305999, 4.110498680432823),
    (52.795611187216934, 4.368468723254064),
    (57.301863323393626, 4.647958984074467),
    (62.10017907277511, 4.953446112409893),
    (67.219370927127, 5.290848405900737),
    (72.69515884761246, 5.668204609032977),
    (78.57280291157132, 6.09679641474342),
    (84.91123113570498, 6.593108861039999),
    (91.78987467123638, 7.182495995536893),
    (99.32080871744681, 7.906666311384229),
    (107.67244063938827, 8.840892492810347),
    (117.12230951269069, 10.140899265621169),
    (128.20184198825564, 12.210021299204604),
    (142.28004446916, 16.705520642024297),
)
# evaluations of the two rules together, and their farthest node (x_i)
_LAGUERRE_POINTS = len(_LAGUERRE_20) + len(_LAGUERRE_40)
LAGUERRE_REACH = _LAGUERRE_40[-1][0]


def _laguerre(f, a: float, rate: float, rule) -> tuple:
    # (integral of f, integral of |f|) over (a, inf) by the rule at the
    # nodes a + x_i / rate; the parts are summed by fsum, since plain sums
    # of the up to 1e6-fold larger terms of a cancelling integrand cost
    # round-trip digits.  A real f gives a real integral.  Infinities of
    # both signs, or sums past the float range, which fsum and abs refuse,
    # give NaN, so that the cells decide.
    terms = [w * f(a + x / rate) for x, w in rule]
    try:
        real = math.fsum(t.real for t in terms) / rate
        magnitude = math.fsum(map(abs, terms)) / rate
        if not any(isinstance(t, complex) for t in terms):
            return real, magnitude
        return (complex(real, math.fsum(t.imag for t in terms) / rate),
                magnitude)
    except (OverflowError, ValueError):
        return math.nan, math.nan


def _integrate_cells(f, edges, spec: QuadratureSpec,
                     panel: _GaussKronrod) -> IntegralResult:
    """Sum of the adaptive integrals of f over the cells between the edges.

    edges is an iterator of increasing cell edges, the start first; one
    loop walks cells 1 to 201, the first cell its first iteration, and
    bisects each on the loop's panel rule (G10/K21 for geometric cells,
    G7/K15 for half-period ones).  The error estimate sums the cell
    estimates (QUADPACK's convention), and the magnitude the cell
    magnitudes.  The sum stops on the first cell past the second whose
    magnitude, the integral of |f| over it, is at most
    max(0.1 tol, 5e-16 |total|), tol = max(abs_tol, rel_tol |total|), with
    that magnitude added to the error; a cell whose signed integral cancels
    does not stop it.  It also stops when two successive Wynn epsilon
    extrapolations of the partial sums agree.  Extrapolation is tried only
    while the two newest cells alternate in sign, the sequences it is made
    for; on a same-sign tail that has not yet peaked, two equal
    extrapolations prove nothing.  The epsilon table (_EpsilonTable) is
    built when the cells first alternate, from the sixth sum on, and then
    extended once per cell; a loop whose cells never alternate does no
    epsilon work.  Whichever way it stops, the sum is reported unconverged
    if any cell stopped on its subdivision budget or at machine resolution;
    a cell whose error estimate is at the roundoff of its value counts as
    converged.  A partial sum that is not finite ends the loop at once.
    """
    resolved = True  # no cell stopped on its budget or at machine resolution
    evals = 0
    total = part = cell_err = magnitude = 0.0
    sums = []
    table = None  # the epsilon table, from the first alternation on
    prev_accel = None
    # range goes first, so that zip asks no edge past the last cell
    for n, (lo, hi) in zip(range(1, _OSCILLATION_CELLS + 2), pairwise(edges)):
        res = _adaptive(f, lo, hi, spec, panel)
        prev, part = part, res.value
        resolved = resolved and (res.converged or _at_roundoff(
            res.error_estimate, part))
        evals += res.evaluations
        total += part
        cell_err += res.error_estimate
        magnitude += res.magnitude
        if not math.isfinite(abs(total)):  # no later cell can mend the sum
            return IntegralResult(total, math.inf, False, evals, magnitude)
        sums.append(total)
        tol = 0.1 * max(spec.abs_tol, spec.rel_tol * abs(total))
        if n > 2 and res.magnitude <= max(tol, 5e-16 * abs(total)):
            return IntegralResult(total, res.magnitude + cell_err, resolved,
                                  evals, magnitude)
        if table is not None:
            table.add(total)
        if n == 1 or (part * prev.conjugate()).real >= 0.0:  # not alternating
            prev_accel = None
        elif n >= 6:
            if table is None:
                table = _EpsilonTable(sums)
            accel = table.estimate()
            if math.isfinite(abs(accel)):  # the sums may be complex
                if prev_accel is not None:
                    delta = abs(accel - prev_accel)
                    if delta <= max(spec.abs_tol, spec.rel_tol * abs(accel)):
                        return IntegralResult(accel, delta + cell_err,
                                              resolved, evals, magnitude)
                prev_accel = accel
    best = total if prev_accel is None else prev_accel
    return IntegralResult(best, abs(best - total) + abs(part) + cell_err, False,
                          evals, magnitude)


def integrate_semi_infinite(f, a: float, spec: QuadratureSpec, *,
                            rate: float | None = None) -> IntegralResult:
    """Integral of a decaying f over (a, inf) by geometric cells.

    The cells end at a + 1, 3, 7, ..., 63 and then every 64, the edges one
    running sum of the widths 1, 2, 4, ..., 64, 64, ... from a, and take
    G10/K21 panels; a tail that does not decay is reported through
    converged=False.  a must be finite.

    A caller that knows |f| decays like e^{-rate (x - a)} passes that rate
    (finite and positive, else DomainError).  The integral is then first
    summed by the 20- and 40-node Gauss-Laguerre rules at x = a + x_i / rate
    (largest node 142.28 / rate), exact for f = p(x) e^{-rate (x - a)} with
    p of degree below 40 and 80.  Where the two sums agree within
    max(abs_tol, rel_tol |sum|) the 40-node sum is returned, converged,
    after 60 evaluations, with |difference| as its error estimate and the
    40-node sum of |f| as its magnitude.  Otherwise, a sum that is NaN or
    leaves the float range included, the geometric cells run as without a
    rate, and their count gains the rules' 60.  So the rate pays where f
    is smooth against its decay and costs 60 evaluations where it is not
    (an endpoint singularity such as sqrt(x), an oscillation too fast for
    40 nodes, two decay scales).
    """
    if not -math.inf < a < math.inf:  # also refuses NaN
        raise DomainError(f"integrate_semi_infinite requires a finite a, "
                          f"got {a}")
    if rate is not None:
        _positive("rate", rate)
        coarse, _ = _laguerre(f, a, rate, _LAGUERRE_20)
        value, magnitude = _laguerre(f, a, rate, _LAGUERRE_40)
        error = abs(value - coarse)
        if error <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return IntegralResult(value, error, True, _LAGUERRE_POINTS,
                                  magnitude)
    widths = chain((1.0, 2.0, 4.0, 8.0, 16.0, 32.0), repeat(64.0))
    res = _integrate_cells(f, accumulate(widths, initial=a), spec, _gk21)
    if rate is None:
        return res
    return replace(res, evaluations=res.evaluations + _LAGUERRE_POINTS)


def integrate_oscillatory(f, zero, spec: QuadratureSpec) -> IntegralResult:
    """Integral of f(x) over (0, inf), cell by cell between oscillation zeros.

    zero(n) is the n-th positive zero (n >= 1, increasing in n) of the
    oscillating factor of f, asked once per cell in order; the cells
    alternate, so Wynn's epsilon applies.  A cell spans half a period, on
    which f is smooth and close to one arch, so each cell is integrated
    adaptively on QUADPACK's G7/K15 panel (dqk15, 15 evaluations per panel
    and 30 per bisection): there 15 nodes meet the tolerance that a
    G10/K21 panel would spend 21 on.  The wide geometric cells of
    integrate_semi_infinite keep G10/K21, on which K15 needs more
    bisections than it saves.
    """
    return _integrate_cells(f, chain((0.0,), map(zero, count(1))), spec, _gk15)
