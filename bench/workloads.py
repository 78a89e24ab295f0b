"""The benchmark's three workloads as fixed lists of checked operations.

Every op has a ``run`` step, which calls fltrans through its public
functions and is timed, and a ``check`` step, which judges the result
against a closed form from ``closed_forms.py`` or against a property the
method must have (two independent hops agree, energy is conserved).  No
check compares against stored program output.

Functions are looked up on their module at call time (``verify.fl_inversion``
rather than a name bound at import), so a traced run sees every call.
"""

from __future__ import annotations

import collections
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import closed_forms as cf

HERE = Path(__file__).resolve().parent
WAVE_INPUTS = HERE / "inputs" / "wave.json"

NODES = 48            # the program's default Talbot node count
PAIR_TOL = 1e-6       # two-hop agreement of a registry row
RTE_TOL = 1e-5        # two-hop agreement of the radiative transfer chain
ENERGY_TOL = 1e-9     # |energy - A0| / A0
MIN_POINTS = 20       # verify_all keeps at least this many grid points

# the paper's radiative transfer defaults: c = ell = A0 = 1
RTE_GRID = tuple((k, t) for k in (0.0, 0.5, 1.0, 2.0) for t in (0.5, 1.0, 2.0))
ENERGY_TIMES = (0.5, 1.0, 2.0, 5.0)
INTENSITY_GRID = tuple((r, t) for r in (0.25, 0.75, 1.5, 3.0)
                       for t in (0.5, 1.0, 2.0, 5.0))

# forward-then-inverse radial round trips: (profile, d, r)
RADIAL_LEGS = (("gaussian", 1, 0.5), ("gaussian", 1, 1.5),
               ("gaussian", 2, 0.5), ("gaussian", 2, 1.5),
               ("gaussian", 3, 0.5), ("gaussian", 3, 1.5),
               ("gaussian", 5, 1.0),
               ("yukawa", 2, 1.0), ("yukawa", 3, 0.5), ("yukawa", 3, 1.0))

# t grid of the Laplace round trips.  Fixed, because forward_laplace fails
# on some contour nodes just right of sigma0 + margin (see CHANGES.md), so
# seeded times would make the failures depend on the seed.
LAPLACE_ROUNDTRIP_T = (0.5, 1.0, 2.0)

# Grids of the seeded roundtrip ops; the seed moves each value by up to
# JITTER of itself, so every seed runs the same code paths at about the
# same cost.  Past k = 8 forward hops take the oscillatory/Wynn path; the
# Gaussian's transform is below 1e-13 there, so only the exponential's
# hops go past it.
JITTER = 0.05
FORWARD_K = {
    "gaussian": (0.5, 1.5, 3.0, 4.5, 6.0, 7.5),
    "exponential": (0.5, 1.5, 2.5, 3.5, 10.0, 16.0, 25.0, 38.0),
}
YUKAWA_R = (0.3, 1.0, 2.5, 6.0)
# forward_laplace points as (Re s - sigma0, Im s): four on the semi-infinite
# path, four on the oscillatory path (|Im s| > 10 max(1, Re s - sigma0)),
# four left of sigma0 on a rotated ray
LAPLACE_S = ((1.0, 1.5), (2.5, -2.5), (0.5, 0.8), (1.8, 4.0),
             (0.8, 20.0), (1.2, -35.0), (0.4, 14.0), (1.5, 28.0),
             (-0.5, 3.0), (-0.8, -5.0), (-0.2, 2.5), (-1.0, 4.5))
INVERSE_T = (0.2, 0.6, 1.5, 3.0, 6.0, 10.0)

# errors a numeric hop of the program may raise
PROGRAM_ERRORS = (ArithmeticError, ValueError, RuntimeError)


def radius_set_by_branch(h: float, t: float) -> bool:
    """Whether inverse_laplace's contour radius comes from the branch height.

    inverse_laplace uses radius max(0.3 * 2N/(5t), 1.15 h), h = branch
    height + pole height.  Once the second term wins, roundoff in the
    result grows like e^(1.15 h t) with no error raised: the inverter's
    known wave-regime fault.  A failed op outside this regime is not
    explained by that fault.
    """
    return 1.15 * h * t > 0.3 * 2.0 * NODES / 5.0


def agreement(lhs: float, rhs: float) -> float:
    """Relative gap between the two hops of a mixed-domain check."""
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-12)


@dataclass
class Outcome:
    ok: bool
    err: Optional[float]       # error measure behind digits; None if the op has none
    reason: str = ""
    fault: bool = False        # failure explained by the inverse_laplace fault
    points: int = 0            # (k, t) points compared by the verify layer


@dataclass
class Op:
    ident: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    span: Optional[str] = None  # root-span name in a traced run


def _within(err: float, tol: float, what: str) -> Outcome:
    if err <= tol:
        return Outcome(True, err)
    return Outcome(False, err, f"{what} {err:.3e} > {tol:.0e}")


class Workload:
    """An op list plus a per-pass hook; ``notes`` describe the inputs."""

    def __init__(self, name: str, ops: list, notes: list) -> None:
        self.name = name
        self.ops = ops
        self.notes = notes

    def begin_pass(self) -> None:
        pass


def admissible(pairs, verify) -> tuple[list, int]:
    """(row, d, original) triples verify_all checks, and the skipped count.

    A row is checked in the dimensions its constraint admits (d = 1 only
    for rows integrable there); a type-2 row needs a decaying original.
    """
    combos, skipped = [], 0
    for pid in pairs.PAIR_IDS:
        row = pairs.lookup(pid)
        for d in (1, 2, 3):
            if not row.dim_constraint(d):
                continue
            if d == 1 and pid not in verify.D1_VERIFIABLE:
                continue
            for f in pairs.catalog_list():
                if not row.type_one and f.f.sigma0 >= 0.0:
                    skipped += 1
                    continue
                combos.append((pid, d, f))
    return combos, skipped


# --------------------------------------------------------------------------
# paper_grid
# --------------------------------------------------------------------------

class PaperGrid(Workload):
    """The paper's verification table plus the radiative transfer chain."""

    def __init__(self, seed: int) -> None:
        from fltrans import numerics, pairs, rte2d, verify
        spec = numerics.QuadratureSpec()
        params = rte2d.TransportParams(1.0, 1.0, 1.0)
        self.reports: list = []
        combos, skipped = admissible(pairs, verify)
        ops = [self._verify_op(verify, pid, d, f) for pid, d, f in combos]

        def check_rte(rep):
            if rep.failures or len(rep.lhs_values) != len(RTE_GRID):
                return Outcome(False, None, f"rte failures {rep.failures}")
            err = max(agreement(a, b) for a, b in zip(rep.lhs_values, rep.rhs_values))
            return _within(err, RTE_TOL, "rte two-hop gap")

        ops.append(Op("rte verify_rte_mixed default grid",
                      lambda: rte2d.verify_rte_mixed(params, RTE_GRID, spec, NODES,
                                                     tolerance=RTE_TOL),
                      check_rte))

        def check_energy(values):
            err = max(abs(e - params.A0) / params.A0 for e in values)
            return _within(err, ENERGY_TOL, "energy error")

        ops.append(Op("rte check_energy",
                      lambda: [rte2d.check_energy(params, t, spec) for t in ENERGY_TIMES],
                      check_energy))

        def check_intensity(values):
            err = 0.0
            for (r, t), v in zip(INTENSITY_GRID, values):
                smooth, weight = cf.rte_intensity(1.0, 1.0, 1.0, r, t)
                err = max(err, cf.rel_error(v.smooth, smooth, 1e-300),
                          cf.rel_error(v.ballistic_weight, weight, 1e-300))
            return _within(err, 1e-12, "intensity error")

        ops.append(Op("rte intensity",
                      lambda: [rte2d.intensity(params, r, t) for r, t in INTENSITY_GRID],
                      check_intensity))
        random.Random(seed).shuffle(ops)
        ops.append(Op("report text+json", lambda: self._render(verify),
                      self._check_report, span="verify.report"))
        super().__init__("paper_grid", ops, [
            f"{len(combos)} verify_all ops (row x d x original); {skipped} "
            f"type-2 x growing-original skips recorded, not run",
            "3 radiative transfer ops (verify_rte_mixed, check_energy, intensity)",
            "1 report op (reports_to_text and JSON of the pass)",
            f"op order shuffled by seed {seed}; the grid itself is fixed"])

    def begin_pass(self) -> None:
        self.reports = []

    def _verify_op(self, verify, pid, d, f) -> Op:
        def check(reports):
            if len(reports) != 1:
                return Outcome(False, None, f"{len(reports)} reports, want 1")
            rep = reports[0]
            self.reports.append(rep)
            n = len(rep.sample_points)
            if rep.failures or n < MIN_POINTS or len(rep.rhs_values) != n:
                return Outcome(False, None, f"{n} points, failures {rep.failures}",
                               points=n)
            err = max(agreement(a, b) for a, b in zip(rep.lhs_values, rep.rhs_values))
            out = _within(err, PAIR_TOL, "two-hop gap")
            if out.ok and not rep.passed:
                out = Outcome(False, err, "report says failed, points agree")
            out.points = n
            return out

        return Op(f"verify {pid} d={d} f={f.id}",
                  lambda: verify.verify_all([d], pair_ids=[pid], originals=[f]),
                  check)

    def _render(self, verify):
        text = verify.reports_to_text(self.reports)
        doc = json.dumps([r.to_dict() for r in self.reports], indent=1)
        return text, doc

    def _check_report(self, out) -> Outcome:
        text, doc = out
        reps = self.reports
        lines = text.splitlines()
        want_lines = 3 + sum(len(r.sample_points) + len(r.skipped) + len(r.failures)
                             for r in reps)
        summary = f"# reports={len(reps)} passed={sum(r.passed for r in reps)}"
        parsed = json.loads(doc)
        ok = (len(lines) == want_lines and lines[-1].startswith(summary)
              and [len(p["sample_points"]) for p in parsed]
              == [len(r.sample_points) for r in reps])
        return Outcome(ok, None, "" if ok else "report text/JSON does not match the pass")


# --------------------------------------------------------------------------
# wave
# --------------------------------------------------------------------------

class Wave(Workload):
    """Mixed-domain points in the wave regime k*t >> 1 (committed list)."""

    def __init__(self, seed: int) -> None:
        from fltrans import numerics, pairs, rte2d, verify
        spec = numerics.QuadratureSpec()
        params = rte2d.TransportParams(1.0, 1.0, 1.0)
        data = json.loads(WAVE_INPUTS.read_text(encoding="utf-8"))
        ops = [self._pair_op(pairs, verify, spec, *p) for p in data["pair_points"]]
        ops += [self._rte_op(rte2d, params, spec, k, t) for k, t in data["rte_points"]]
        random.Random(seed).shuffle(ops)
        super().__init__("wave", ops, [
            f"{len(data['pair_points'])} pair points and {len(data['rte_points'])} "
            f"RTE points from {WAVE_INPUTS.relative_to(HERE.parent)} "
            f"(generator seed {data['seed']}; dropped below the magnitude floor: "
            f"{data['dropped']})",
            f"op order shuffled by seed {seed}; the point list itself is fixed"])

    @staticmethod
    def _pair_op(pairs, verify, spec, pid, d, fid, k, t) -> Op:
        row, f = pairs.lookup(pid), pairs.catalog_lookup(fid)

        def run():
            lhs = verify.spacetime_transform(row, d, f, k, t, spec)
            try:
                rhs = verify.fl_inversion(row, d, f, k, t, NODES)
            except PROGRAM_ERRORS as exc:
                rhs = exc
            return lhs, rhs

        def check(out):
            lhs, rhs = out
            fault = radius_set_by_branch(k + f.image_pole_height, t)
            if isinstance(rhs, Exception):
                return Outcome(False, None, f"inverse hop raised {rhs!r}", fault, 1)
            out = _within(agreement(lhs, rhs), PAIR_TOL, "rel err")
            if not out.ok:
                out.reason += f" (quadrature {lhs:.6g}, inversion {rhs:.6g})"
                out.fault = fault
            out.points = 1
            return out

        return Op(f"pair {pid} d={d} f={fid} k={k!r} t={t!r}", run, check)

    @staticmethod
    def _rte_op(rte2d, params, spec, k, t) -> Op:
        def check(rep):
            if rep.failures or len(rep.lhs_values) != 1:
                return Outcome(False, None, f"rte failures {rep.failures}")
            lhs, rhs = rep.lhs_values[0], rep.rhs_values[0]
            out = _within(agreement(lhs, rhs), RTE_TOL, "rel err")
            if not out.ok:
                out.reason += f" (quadrature {lhs:.6g}, inversion {rhs:.6g})"
                out.fault = radius_set_by_branch(params.c * k, t)
            return out

        return Op(f"rte k={k!r} t={t!r}",
                  lambda: rte2d.verify_rte_mixed(params, [(k, t)], spec, NODES,
                                                 tolerance=RTE_TOL),
                  check)


# --------------------------------------------------------------------------
# roundtrip
# --------------------------------------------------------------------------

class Roundtrip(Workload):
    """The transform engines without the registry.

    The round trips, which take most of a pass, run on fixed inputs; the
    single hops run on a grid the seed jitters (see JITTER).
    """

    def __init__(self, seed: int) -> None:
        from fltrans import laplace, numerics, pairs, radial_fourier
        spec = numerics.QuadratureSpec()
        outer = numerics.QuadratureSpec(abs_tol=1e-9, rel_tol=3e-8,
                                        max_subdivisions=400)
        rng = random.Random(seed)
        ops = []
        catalog = pairs.catalog_list()
        ops += [self._laplace_roundtrip(laplace, spec, f, LAPLACE_ROUNDTRIP_T)
                for f in catalog]
        for name, d, r in RADIAL_LEGS:
            ops.append(self._radial_roundtrip(radial_fourier, spec, outer, name, d, r))
        jit = lambda x: x * (1.0 + JITTER * rng.uniform(-1.0, 1.0))
        for name, grid in FORWARD_K.items():
            for d in range(1, 7):
                ops += [self._forward_hop(radial_fourier, spec, name, d, jit(k))
                        for k in grid]
        for d in (2, 3):
            ops += [self._inverse_hop(radial_fourier, spec, d, jit(r))
                    for r in YUKAWA_R]
        for f in catalog:
            s0 = f.f.sigma0
            ops += [self._forward_laplace(laplace, spec, f,
                                          complex(s0 + jit(re), jit(im)))
                    for re, im in LAPLACE_S]
            ops += [self._inverse_laplace(laplace, f.id, jit(t))
                    for t in INVERSE_T]
        rng.shuffle(ops)
        kinds = collections.Counter(op.ident.split(" f=")[0].split(" d=")[0] for op in ops)
        super().__init__("roundtrip", ops, [
            ", ".join(f"{n} {kind}" for kind, n in sorted(kinds.items())),
            f"Laplace round trips at t = {LAPLACE_ROUNDTRIP_T} and radial round "
            f"trips on fixed legs; every other parameter is a grid value moved "
            f"by up to {JITTER:.0%} by seed {seed}"])

    @staticmethod
    def _laplace_roundtrip(laplace, spec, f, ts) -> Op:
        def check(worst):
            for t in ts:  # the program's original must be the catalog's
                if cf.rel_error(f.f.eval(t), cf.original(f.id, t), 1.0) > 1e-14:
                    return Outcome(False, None, f"original {f.id} wrong at t={t}")
            return _within(worst, 1e-8, "round-trip error")

        return Op(f"laplace roundtrip f={f.id} t={ts!r}",
                  lambda: laplace.roundtrip_check(f.f, ts, NODES, spec), check)

    @staticmethod
    def _radial_roundtrip(radial_fourier, spec, outer, name, d, r) -> Op:
        fn = cf.PROFILES[name]

        def run():
            dim = radial_fourier.Dimension(d)
            profile = radial_fourier.RadialProfile(
                fn, decay_class="gaussian" if name == "gaussian" else "exponential")
            image = radial_fourier.RadialProfile(
                lambda k: radial_fourier.forward(dim, profile, k, spec),
                decay_class="gaussian" if name == "gaussian" else "algebraic")
            return radial_fourier.inverse(dim, image, r, outer)

        return Op(f"radial roundtrip {name} d={d} r={r}", run,
                  lambda got: _within(cf.rel_error(got, fn(r), 0.0), 1e-6,
                                      "round-trip error"))

    @staticmethod
    def _forward_hop(radial_fourier, spec, name, d, k) -> Op:
        # below abs_tol / rel_tol the quadrature contract is absolute
        floor = spec.abs_tol / spec.rel_tol

        def run():
            profile = radial_fourier.RadialProfile(cf.PROFILES[name], decay_class=name)
            return radial_fourier.forward_result(radial_fourier.Dimension(d),
                                                 profile, k, spec)

        def check(res):
            if not res.converged:
                return Outcome(False, None, "forward hop did not converge")
            return _within(cf.rel_error(float(res.value), cf.radial_ft(name, d, k), floor),
                           100.0 * spec.rel_tol, "forward hop error")

        return Op(f"forward {name} d={d} k={k!r}", run, check)

    @staticmethod
    def _inverse_hop(radial_fourier, spec, d, r) -> Op:
        def run():
            image = radial_fourier.RadialProfile(
                lambda k: cf.radial_ft("yukawa", d, k), decay_class="algebraic")
            return radial_fourier.inverse_result(radial_fourier.Dimension(d),
                                                 image, r, spec)

        def check(res):
            if not res.converged:
                return Outcome(False, None, "inverse hop did not converge")
            return _within(cf.rel_error(float(res.value), cf.PROFILES["yukawa"](r), 0.0),
                           100.0 * spec.rel_tol, "inverse hop error")

        return Op(f"inverse yukawa-image d={d} r={r!r}", run, check)

    @staticmethod
    def _forward_laplace(laplace, spec, f, s) -> Op:
        return Op(f"forward_laplace f={f.id} s={s!r}",
                  lambda: laplace.forward_laplace(f.f, s, spec),
                  lambda got: _within(cf.rel_error(got, cf.image(f.id, s), 0.0), 1e-9,
                                      "image error"))

    @staticmethod
    def _inverse_laplace(laplace, fid, t) -> Op:
        # originals are O(1): judge the absolute error
        return Op(f"inverse_laplace f={fid} t={t!r}",
                  lambda: laplace.inverse_laplace(lambda s: cf.image(fid, s), t, NODES,
                                                  branch_height=cf.pole_height(fid)),
                  lambda got: _within(cf.rel_error(got, cf.original(fid, t), 1.0), 1e-9,
                                      "inversion error"))


WORKLOADS = {"paper_grid": PaperGrid, "wave": Wave, "roundtrip": Roundtrip}
