"""Mixed-domain verification of the double-transform registry.

Every pair identity is checked at the (wavenumber, time) meeting point
with exactly one numeric transform hop per side:

    LHS'(k, t) = radial Fourier transform (dimension d) of the
                 space-time side r -> P(r, t) f(A(r, t)),
    RHS'(k, t) = Talbot inversion at time t of the Fourier-Laplace side
                 s -> psi(k, s) fhat(phi(k, s)).

Each side exercises an independent engine and an independent formula, so
agreement at 1e-6 relative is strong evidence for both the table entry
and the implementation.  Edge singularities of the space-time sides are
integrated under the row's substitution in radial_fourier.radial_quadrature
(r = w^2 at the origin; at the light cone the quadrature owns the weight
1/sqrt(t^2 - r^2)); the inversion contour is raised above the branch
segment |Im s| <= k.

One loop, _compare, decides each point: compared, skipped (its inverted
image side is below the floor, MAGNITUDE_FLOOR in verify_all) or failed
(a hop raised).  verify_all stops after 20 compared or failed points of
the default grid, then the extension grid, inverting each point once.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .laplace import LaplaceError, TimeOriginal, _check_nodes, \
    forward_laplace, inverse_laplace
from .numerics import DomainError, QuadratureSpec, _nonnegative, _positive, \
    bessel_j
from .pairs import PAIR_IDS, PairDescriptor, TestOriginal, _check_dim, \
    catalog_list, lookup, registry_rows
from .radial_fourier import QuadratureError, _value, radial_quadrature

REL_FLOOR = 1e-12
# what one hop of either side may raise at a hard point; such an error
# fails that point, never the whole run
_HOP_ERRORS = (DomainError, QuadratureError, LaplaceError, ArithmeticError)
# grid points whose identity value is below this cannot carry six relative
# digits in double precision (both hops have ~1e-13 absolute floors)
MAGNITUDE_FLOOR = 1e-7

DEFAULT_K_GRID = (0.0, 0.5, 1.0, 2.0)
DEFAULT_T_GRID = (0.5, 1.0, 2.0, 3.0, 5.0)
EXTRA_K_GRID = (0.25, 0.75, 1.5)
EXTRA_T_GRID = (1.5, 2.5, 4.0)


@dataclass(frozen=True)
class VerificationReport:
    """Sampled comparison of the two sides of one pair identity."""

    pair_id: str
    dimension: int
    test_original: str
    sample_points: tuple
    lhs_values: tuple
    rhs_values: tuple
    abs_errors: tuple
    rel_errors: tuple
    tolerance: float
    passed: bool
    wall_time: float
    engine_settings: dict
    failures: tuple = ()
    skipped: tuple = ()

    @property
    def max_rel_error(self) -> float:
        return max(self.rel_errors) if self.rel_errors else 0.0

    def to_dict(self) -> dict:
        return {"schema": 1, **vars(self)}


def _settings(spec: QuadratureSpec, nodes: int) -> dict:
    return {
        "abs_tol": spec.abs_tol,
        "rel_tol": spec.rel_tol,
        "max_subdivisions": spec.max_subdivisions,
        "inversion_nodes": nodes,
    }


def _rel_error(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), REL_FLOOR)


class _BelowFloor(Exception):
    """Raised by a sides function to skip its point; the message says why."""


def _compare(pair_id: str, dimension: int, test_original: str,
             samples: Iterable[tuple], sides, tolerance: float,
             settings: dict, keep: float = math.inf) -> VerificationReport:
    """Decide each sample point in turn with sides(point) -> (lhs, rhs).

    A point is compared when sides returns, skipped when it raises
    _BelowFloor, and failed (failing the report) when it raises a type in
    _HOP_ERRORS; hard points are never skipped.  The walk stops once keep
    points were compared or failed, and wall_time covers all of it.  A
    report that compared nothing fails, and a tolerance that is not
    finite and positive is refused before the first point.
    """
    _positive("tolerance", tolerance)
    start = time.perf_counter()
    points, lhs, rhs, aerr, rerr = [], [], [], [], []
    failures, skipped = [], []
    for point in map(tuple, samples):
        if len(points) + len(failures) >= keep:
            break
        try:
            lv, rv = sides(point)
        except _BelowFloor as exc:
            skipped.append((point, str(exc)))
            continue
        except _HOP_ERRORS as exc:
            failures.append((point, str(exc)))
            continue
        points.append(point)
        lhs.append(lv)
        rhs.append(rv)
        aerr.append(abs(lv - rv))
        rerr.append(_rel_error(lv, rv))
    passed = not failures and bool(rerr) and max(rerr) <= tolerance
    return VerificationReport(
        pair_id=pair_id, dimension=dimension, test_original=test_original,
        sample_points=tuple(points), lhs_values=tuple(lhs),
        rhs_values=tuple(rhs), abs_errors=tuple(aerr),
        rel_errors=tuple(rerr), tolerance=tolerance, passed=passed,
        wall_time=time.perf_counter() - start, engine_settings=settings,
        failures=tuple(failures), skipped=tuple(skipped))


# --------------------------------------------------------------------------
# LHS': one numeric radial-Fourier hop of the space-time side
# --------------------------------------------------------------------------

def spacetime_transform(pair: PairDescriptor, d: int, f: TestOriginal,
                        k: float, t: float, spec: QuadratureSpec) -> float:
    """Radial Fourier transform of the space-time side at wavenumber k.

    Integrates over the row's radial_range(t) under the row's
    substitution (radial_fourier.radial_quadrature).  Refuses a dimension
    outside the row's and a time that is not finite and positive.
    """
    _check_dim(pair, d)
    _positive("time", t)
    lo, hi = pair.radial_range(t)
    res = radial_quadrature(d, pair.st_profile(t, d, f.f.eval), k,
                            lo, hi, pair.substitution, spec)
    return _value(res, f"space-time transform of pair {pair.id} "
                       f"(d={d}, f={f.id})", f"(k, t) = ({k}, {t})")


def fl_inversion(pair: PairDescriptor, d: int, f: TestOriginal,
                 k: float, t: float, nodes: int) -> float:
    """Talbot inversion of the Fourier-Laplace side at time t.

    Inverts the row's bound image pair.fl_profile(k, d, f.fhat), which
    checks d and k (finite, >= 0) once per inversion.  The contour is
    raised above both the sqrt branch segment (height k) and the image
    poles of the original.
    """
    return inverse_laplace(pair.fl_profile(k, d, f.fhat), t, nodes,
                           branch_height=k + f.image_pole_height)


# --------------------------------------------------------------------------
# report builders
# --------------------------------------------------------------------------

def _row_sides(pair: PairDescriptor, d: int, f: TestOriginal,
               spec: QuadratureSpec, nodes: int, floor: float):
    """sides of a row at (k, t): invert, skip below floor, space-time hop."""
    def sides(point: tuple) -> tuple:
        k, t = point
        rhs = fl_inversion(pair, d, f, k, t, nodes)
        if abs(rhs) < floor:
            raise _BelowFloor(f"identity value {abs(rhs):.2e} below "
                              f"magnitude floor {floor:.0e}")
        return spacetime_transform(pair, d, f, k, t, spec), rhs

    return sides


def verify_pair_mixed(pair_id: str, d: int, f: TestOriginal,
                      samples: Sequence[tuple], spec: QuadratureSpec,
                      nodes: int = 48,
                      tolerance: float = 1e-6) -> VerificationReport:
    """Verify one registry row at explicit (k, t) sample points.

    No point is skipped (floor 0); a hop that raises fails its point and
    the report.  A bad row, d, node count or tolerance is refused before
    any hop.  f checked its image when built (TestOriginal).
    """
    pair = lookup(pair_id)
    _check_dim(pair, d)
    _check_nodes(nodes)
    return _compare(pair.id, d, f.id, samples,
                    _row_sides(pair, d, f, spec, nodes, 0.0), tolerance,
                    _settings(spec, nodes))


def verify_base_pair(k: float, u: float, s_grid: Sequence[float],
                     spec: QuadratureSpec = QuadratureSpec(),
                     tolerance: float = 1e-8) -> VerificationReport:
    """Check the base identity behind the proper-time family.

    LHS: exp(-s u) forward_laplace(g)(s), the time shift of the smooth
    g(tau) = J0(k sqrt(tau (tau + 2u))) onto J0(k sqrt(t^2 - u^2)) for
    t > u; a point with s <= 0.1 fails with forward_laplace's DomainError.
    RHS: the closed form exp(-u sqrt(s^2 + k^2))/sqrt(s^2 + k^2).
    """
    _nonnegative("wavenumber", k)
    _nonnegative("shift u", u)
    if not all(s > 0.0 for s in s_grid):
        raise DomainError("base-pair s grid must be positive")
    shifted = TimeOriginal(
        lambda tau: bessel_j(0, k * math.sqrt(tau * (tau + 2.0 * u))))

    def sides(point: tuple) -> tuple:
        s = point[2]
        root = math.sqrt(s * s + k * k)
        return (math.exp(-s * u) * forward_laplace(shifted, s, spec).real,
                math.exp(-u * root) / root)

    return _compare("base(J0)", 2, "delta-shell",
                    [(k, u, s) for s in s_grid], sides, tolerance,
                    _settings(spec, 0))


# --------------------------------------------------------------------------
# whole-registry driver
# --------------------------------------------------------------------------

# rows whose space-time side is verified in one dimension
D1_VERIFIABLE = tuple(row.id for row in registry_rows() if row.min_dim == 1)


def build_sample_grid() -> list:
    """The candidate (k, t) points of verify_all, in the order tried.

    The default grid (20 points), then the extension grid.  verify_all
    hands them to _compare, which stops once 20 were compared or failed;
    a point below MAGNITUDE_FLOOR is skipped and the next one tried.
    """
    return ([(k, t) for k in DEFAULT_K_GRID for t in DEFAULT_T_GRID]
            + [(k, t) for k in EXTRA_K_GRID for t in EXTRA_T_GRID])


def verify_all(d_list: Sequence[int], tolerance: float = 1e-6,
               nodes: int = 48,
               originals: Optional[Sequence[TestOriginal]] = None,
               pair_ids: Optional[Sequence[str]] = None
               ) -> list[VerificationReport]:
    """Run the mixed-domain protocol over the registry.

    Every admissible (row, d, original) triple of the requested rows,
    dimensions and originals (default: the catalog) gets one report from
    _compare over build_sample_grid(): 20 points compared or failed, those
    below MAGNITUDE_FLOOR skipped.  A triple is admissible when
    pair.admits(d, f): d is an integer >= the row's min_dim and, for a
    type-2 row, the original decays (sigma0 < 0).  Inadmissible triples
    are dropped, so a request that admits none returns no report.  A node
    count that is not an integer >= 4, and a tolerance that is not finite
    and positive, are refused before any hop.
    """
    _check_nodes(nodes)
    _positive("tolerance", tolerance)
    spec = QuadratureSpec()
    if originals is None:
        originals = catalog_list()
    if pair_ids is None:
        pair_ids = list(PAIR_IDS)
    reports: list[VerificationReport] = []
    for pid in pair_ids:
        pair = lookup(pid)
        for d in d_list:
            for f in originals:
                if pair.admits(d, f):
                    reports.append(_compare(
                        pair.id, d, f.id, build_sample_grid(),
                        _row_sides(pair, d, f, spec, nodes, MAGNITUDE_FLOOR),
                        tolerance, _settings(spec, nodes), keep=20))
    return reports


def reports_to_text(reports: Sequence[VerificationReport]) -> str:
    """Stable plain-text report: one record per sample point + summary."""
    lines = ["pair_id d f_id k t lhs rhs abs_err rel_err"]
    for rep in reports:
        for (point, lv, rv, ae, re_) in zip(rep.sample_points, rep.lhs_values,
                                            rep.rhs_values, rep.abs_errors,
                                            rep.rel_errors):
            lines.append(f"{rep.pair_id} {rep.dimension} {rep.test_original} "
                         f"{' '.join(map(repr, point))} "
                         f"{lv!r} {rv!r} {ae!r} {re_!r}")
        for point, reason in rep.skipped:
            lines.append(f"# skipped {rep.pair_id} d={rep.dimension} "
                         f"f={rep.test_original} point={point}: {reason}")
        for point, reason in rep.failures:
            lines.append(f"# FAILED {rep.pair_id} d={rep.dimension} "
                         f"f={rep.test_original} point={point}: {reason}")
    lines.append("# summary")
    total = len(reports)
    passed = sum(1 for r in reports if r.passed)
    worst = max((r.max_rel_error for r in reports), default=0.0)
    lines.append(f"# reports={total} passed={passed} failed={total - passed} "
                 f"max_rel_error={worst!r}")
    return "\n".join(lines) + "\n"
