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
(r = t sin(theta) at the light cone, r = w^2 at the origin); the matching
inversion contour is raised above the branch segment |Im s| <= k.

verify_all compares at the first 20 grid points (default grid, then the
extension grid) whose inverted image side clears MAGNITUDE_FLOOR, reusing
that inversion as the right-hand side.  Only points below the floor are
skipped; a point where either hop raises is kept and fails its report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace as dc_replace
from typing import Iterable, Optional, Sequence

from .laplace import LaplaceError, inverse_laplace
from .numerics import DomainError, QuadratureSpec, integrate_semi_infinite
from .pairs import PAIR_IDS, PairDescriptor, TestOriginal, catalog_list, \
    eval_fl, lookup, registry_rows
from .radial_fourier import QuadratureError, kernel_ghat, radial_quadrature

REL_FLOOR = 1e-12
# what one hop of either side may raise at a hard point
_HOP_ERRORS = (DomainError, QuadratureError, LaplaceError)
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
        "max_oscillation_cells": spec.max_oscillation_cells,
        "inversion_nodes": nodes,
    }


def _rel_error(lhs: float, rhs: float) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), REL_FLOOR)


def _compare(pair_id: str, dimension: int, test_original: str,
             samples: Iterable[tuple], sides, errors: tuple,
             tolerance: float, settings: dict) -> VerificationReport:
    """Evaluate sides(point) -> (lhs, rhs) at every sample and report.

    An exception of a type in errors is recorded as a failure of its point
    and fails the report; points are never silently skipped.  A report
    that compared nothing fails.
    """
    start = time.perf_counter()
    points, lhs, rhs, aerr, rerr, failures = [], [], [], [], [], []
    for point in map(tuple, samples):
        try:
            lv, rv = sides(point)
        except errors as exc:
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
        failures=tuple(failures))


# --------------------------------------------------------------------------
# LHS': one numeric radial-Fourier hop of the space-time side
# --------------------------------------------------------------------------

def spacetime_transform(pair: PairDescriptor, d: int, f: TestOriginal,
                        k: float, t: float, spec: QuadratureSpec) -> float:
    """Radial Fourier transform of the space-time side at wavenumber k.

    Integrates over the row's radial_range(t) under the row's
    substitution (radial_fourier.radial_quadrature).
    """
    lo, hi = pair.radial_range(t)
    # a lambda: functools.partial with t bound by keyword builds a kwargs
    # dict per call and costs about 0.5 us more per evaluation
    res = radial_quadrature(d, lambda r: pair.spacetime_value(d, f, r, t), k,
                            lo, hi, pair.substitution, spec)
    if not res.converged:
        raise QuadratureError(
            f"space-time transform of pair {pair.id} (d={d}, f={f.id}) "
            f"did not converge at (k, t) = ({k}, {t})")
    return float(res.value)


def fl_inversion(pair: PairDescriptor, d: int, f: TestOriginal,
                 k: float, t: float, nodes: int) -> float:
    """Talbot inversion of the Fourier-Laplace side at time t.

    The contour is raised above both the sqrt branch segment (height k)
    and the image poles of the original.
    """
    image = lambda s: eval_fl(pair, d, f, k, s, check_validity=False)
    return inverse_laplace(image, t, nodes,
                           branch_height=k + f.image_pole_height)


# --------------------------------------------------------------------------
# report builders
# --------------------------------------------------------------------------

def _assert_catalog_image(f: TestOriginal, spec: QuadratureSpec) -> None:
    # TestOriginal invariant, asserted once per run: the closed-form image
    # must match the numeric transform to 1e-9 above sigma0
    from .laplace import forward_laplace

    for s in (f.f.sigma0 + 1.1, f.f.sigma0 + 2.6):
        got = forward_laplace(f.f, s, spec)
        want = f.fhat.eval(s)
        if abs(got - want) > 1e-9 * max(1.0, abs(want)):
            raise DomainError(
                f"catalog original {f.id}: closed-form image disagrees with "
                f"the numeric transform at s={s} ({got} vs {want})")


def verify_pair_mixed(pair_id: str, d: int, f: TestOriginal,
                      samples: Sequence[tuple], spec: QuadratureSpec,
                      nodes: int = 48,
                      tolerance: float = 1e-6) -> VerificationReport:
    """Verify one registry row at explicit (k, t) sample points.

    Engine failures are recorded per point and fail the report; they are
    never silently skipped.
    """
    pair = lookup(pair_id)
    if not pair.dim_constraint(d):
        raise DomainError(f"pair {pair.id} requires {pair.dim_note}, got d={d}")
    _assert_catalog_image(f, spec)
    return _compare(
        pair.id, d, f.id, samples,
        lambda p: (spacetime_transform(pair, d, f, p[0], p[1], spec),
                   fl_inversion(pair, d, f, p[0], p[1], nodes)),
        _HOP_ERRORS, tolerance, _settings(spec, nodes))


def verify_base_pair(k: float, u: float, s_grid: Sequence[float],
                     spec: Optional[QuadratureSpec] = None,
                     tolerance: float = 1e-8) -> VerificationReport:
    """Check the base identity behind the proper-time family.

    LHS: one-hop Laplace quadrature of t -> J0(k sqrt(t^2 - u^2)) for
    t > u (under the substitution t = u cosh(v), which absorbs the edge);
    RHS: the closed form exp(-u sqrt(s^2 + k^2))/sqrt(s^2 + k^2).
    """
    if spec is None:
        spec = QuadratureSpec()
    if k < 0.0 or u < 0.0:
        raise DomainError("k and u must be nonnegative")
    if not all(s > 0.0 for s in s_grid):
        raise DomainError("base-pair s grid must be positive")

    def sides(point: tuple) -> tuple:
        s = point[2]
        if u > 0.0:
            def integrand(v: float) -> float:
                # the damping underflows long before sinh overflows
                if v > 50.0 or s * u * math.cosh(v) > 745.0:
                    return 0.0
                return (u * math.sinh(v)
                        * math.exp(-s * u * math.cosh(v))
                        * kernel_ghat(2, k, u * math.sinh(v)))

            res = integrate_semi_infinite(integrand, 0.0, spec)
        else:
            res = integrate_semi_infinite(
                lambda t: math.exp(-s * t) * kernel_ghat(2, k, t), 0.0, spec)
        if not res.converged:
            raise QuadratureError(
                f"base-pair quadrature did not converge at s={s}")
        root = math.sqrt(s * s + k * k)
        return float(res.value), math.exp(-u * root) / root

    return _compare("base(J0)", 2, "delta-shell",
                    [(k, u, s) for s in s_grid], sides,
                    (DomainError, QuadratureError), tolerance,
                    _settings(spec, 0))


# --------------------------------------------------------------------------
# whole-registry driver
# --------------------------------------------------------------------------

def _admissible_dims(pair: PairDescriptor, d_list: Sequence[int]) -> list[int]:
    return [d for d in d_list
            if pair.dim_constraint(d) and (d != 1 or pair.d1_integrable)]


# rows whose space-time side is verified in one dimension
D1_VERIFIABLE = tuple(row.id for row in registry_rows()
                      if _admissible_dims(row, (1,)))


def _original_admissible(pair: PairDescriptor, f: TestOriginal) -> bool:
    # type-2 arguments phi(k, s) approach 0 or the whole left half-plane on
    # the contour; originals must decay (sigma0 < 0) for fhat(phi) to stay
    # pole-free there
    if pair.type_one:
        return True
    return f.f.sigma0 < 0.0


def build_sample_grid(pair: PairDescriptor, d: int, f: TestOriginal,
                      nodes: int = 48) -> tuple[dict, list]:
    """Image-side values at the first 20 grid points above the floor.

    Walks the default grid, then the extension grid, until as many points
    as the default grid holds (20) are kept.  Points whose image-side value
    is below MAGNITUDE_FLOOR cannot be compared at six relative digits in
    double precision and are skipped; a point whose inversion raises
    LaplaceError is kept with that error so that it fails (DomainError
    propagates).  Returns (images, skipped): images maps each kept (k, t)
    to its value or error, skipped pairs each dropped point with why.
    """
    candidates = [(k, t) for k in DEFAULT_K_GRID for t in DEFAULT_T_GRID]
    extras = [(k, t) for k in EXTRA_K_GRID for t in EXTRA_T_GRID]
    images, skipped = {}, []
    for k, t in candidates + extras:
        if len(images) == len(candidates):
            break
        try:
            value = fl_inversion(pair, d, f, k, t, nodes)
        except LaplaceError as exc:
            images[k, t] = exc
            continue
        if abs(value) < MAGNITUDE_FLOOR:
            skipped.append(((k, t), f"identity value {abs(value):.2e} below "
                                    f"magnitude floor {MAGNITUDE_FLOOR:.0e}"))
        else:
            images[k, t] = value
    return images, skipped


def verify_all(d_list: Sequence[int], tolerance: float = 1e-6,
               spec: Optional[QuadratureSpec] = None, nodes: int = 48,
               originals: Optional[Sequence[TestOriginal]] = None,
               pair_ids: Optional[Sequence[str]] = None
               ) -> list[VerificationReport]:
    """Run the mixed-domain protocol over the registry.

    Every requested row is verified for every admissible dimension and
    every admissible catalog original on the grid of build_sample_grid.
    Incompatible originals (growing f against a type-2 row) are skipped
    with a recorded reason, never silently.
    """
    if spec is None:
        spec = QuadratureSpec()
    if originals is None:
        originals = catalog_list()
    if pair_ids is None:
        pair_ids = list(PAIR_IDS)
    for f in originals:
        _assert_catalog_image(f, spec)
    reports: list[VerificationReport] = []
    for pid in pair_ids:
        pair = lookup(pid)
        for d in _admissible_dims(pair, d_list):
            for f in originals:
                if not _original_admissible(pair, f):
                    reports.append(dc_replace(
                        _compare(pair.id, d, f.id, (), None, (), tolerance,
                                 _settings(spec, nodes)),
                        passed=True,
                        skipped=(((), f"original {f.id} (sigma0 >= 0) "
                                      f"incompatible with type-2 row"),)))
                    continue
                images, skipped = build_sample_grid(pair, d, f, nodes)

                def sides(p):
                    rhs = images[p]
                    if isinstance(rhs, LaplaceError):
                        raise rhs
                    return spacetime_transform(pair, d, f, *p, spec), rhs

                reports.append(dc_replace(_compare(
                    pair.id, d, f.id, images, sides, _HOP_ERRORS, tolerance,
                    _settings(spec, nodes)), skipped=tuple(skipped)))
    return reports


def reports_to_text(reports: Sequence[VerificationReport]) -> str:
    """Stable plain-text report: one record per sample point + summary."""
    lines = ["pair_id d f_id k t lhs rhs abs_err rel_err"]
    for rep in reports:
        for (point, lv, rv, ae, re_) in zip(rep.sample_points, rep.lhs_values,
                                            rep.rhs_values, rep.abs_errors,
                                            rep.rel_errors):
            k, t = point[0], point[1]
            lines.append(f"{rep.pair_id} {rep.dimension} {rep.test_original} "
                         f"{k!r} {t!r} {lv!r} {rv!r} {ae!r} {re_!r}")
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
