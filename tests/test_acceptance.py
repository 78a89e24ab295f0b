"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; expected values marked
as derived were computed from the independent oracles coded in this file.
"""

import cmath
import math
import time

import pytest

from fltrans.laplace import roundtrip_check
from fltrans.numerics import QuadratureSpec, bessel_j
from fltrans.pairs import catalog_list, catalog_lookup, eval_fl, \
    eval_spacetime, lookup
from fltrans.radial_fourier import Dimension, RadialProfile, forward, \
    inverse, kernel_ghat
from fltrans.rte2d import TransportParams, check_energy, intensity, \
    verify_rte_mixed
from fltrans.verify import verify_all, verify_base_pair, verify_pair_mixed

SPEC = QuadratureSpec()
EXP1 = catalog_lookup("exp_decay:1")
POLY11 = catalog_lookup("poly_exp:1,1")


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


def test_criterion_1_kernel_consistency():
    """General Bessel kernel vs closed forms, d in {1,2,3}, 500-point grid."""
    start = time.perf_counter()

    def general(d, z):
        # independent route: Gamma(d/2) (z/2)^(1-d/2) J_(d/2-1)(z)
        if z == 0.0:
            return 1.0
        return math.gamma(0.5 * d) * (0.5 * z) ** (1.0 - 0.5 * d) \
            * bessel_j(0.5 * d - 1.0, z)

    closed = {1: math.cos,
              2: lambda z: bessel_j(0, z),
              3: lambda z: 1.0 if z == 0 else math.sin(z) / z}
    worst = 0.0
    for d in (1, 2, 3):
        for i in range(501):
            z = 50.0 * i / 500.0
            err = abs(kernel_ghat(d, 1.0, z) - closed[d](z))
            err = max(err, abs(general(d, z) - closed[d](z)))
            worst = max(worst, err)
    elapsed = time.perf_counter() - start
    report("1 kernel-consistency", worst <= 1e-12 and elapsed < 1.0,
           f"max abs err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_efros_base_identity():
    """One-hop Laplace quadrature vs closed form, rel <= 1e-8."""
    start = time.perf_counter()
    worst = 0.0
    for k in (0.0, 0.5, 1.0, 2.0):
        for u in (0.0, 0.5, 1.0, 2.0):
            rep = verify_base_pair(k, u, (0.5, 1.0, 2.0, 4.0), SPEC)
            assert not rep.failures, rep.failures
            worst = max(worst, rep.max_rel_error)
    elapsed = time.perf_counter() - start
    report("2 efros-base-identity", worst <= 1e-8 and elapsed < 10.0,
           f"max rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_3_all_rows_mixed_domain():
    """Nine rows x admissible d x {exp_decay(1), poly_exp(1,1)}, >= 20 pts."""
    start = time.perf_counter()
    reports = verify_all([2, 3, 1], tolerance=1e-6,
                         originals=[EXP1, POLY11], nodes=48)
    elapsed = time.perf_counter() - start
    rows_seen = {(r.pair_id, r.dimension) for r in reports}
    # d in {2, 3} coverage: every row at every table-admissible dimension
    for pid in ("1.1", "1.2", "1.4", "1.5", "2.1", "2.2", "2.3", "2.4"):
        for d in (2, 3):
            if pid == "1.3" and d == 2:
                continue
            assert (pid, d) in rows_seen, f"missing {pid} d={d}"
    assert ("1.3", 3) in rows_seen
    all_pass = all(r.passed for r in reports)
    enough = all(len(r.sample_points) >= 20 for r in reports
                 if not r.skipped or r.sample_points)
    worst = max(r.max_rel_error for r in reports)
    report("3 nine-rows-mixed-domain",
           all_pass and enough and worst <= 1e-6 and elapsed < 600.0,
           f"{len(reports)} reports, max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_4_symmetric_special_form():
    """The 2-D special form verifies under its alias; composition is exact."""
    start = time.perf_counter()
    samples = [(k, t) for k in (0.0, 0.5, 1.0, 2.0)
               for t in (0.5, 1.0, 2.0, 3.0, 5.0)]
    rep = verify_pair_mixed("2D-SDT", 2, EXP1, samples, SPEC, 48)
    assert len(rep.sample_points) >= 20

    # the base identity composed with f in closed form: f(u)/(2 pi u) at
    # u = sqrt(t^2 - r^2) and fhat(q)/q at q = sqrt(s^2 + k^2)
    row = lookup("2.1")
    algebra_worst = 0.0
    for r, t in ((0.5, 1.0), (3.0, 5.0), (1.0, 1.5), (2.0, 6.0)):
        u = math.sqrt(t * t - r * r)
        a = EXP1.f.eval(u) / (2.0 * math.pi * u)
        b = eval_spacetime(row, 2, EXP1, r, t)
        algebra_worst = max(algebra_worst, abs(a - b) / max(abs(b), 1e-300))
    for k in (0.0, 0.5, 1.0, 2.0):
        for s in (0.5, 1.0, 2.0, complex(1.0, 0.5)):
            q = cmath.sqrt(s * s + k * k)
            a = EXP1.fhat(q) / q
            b = eval_fl(row, 2, EXP1, k, complex(s))
            algebra_worst = max(algebra_worst, abs(a - b) / max(abs(b), 1e-300))
    elapsed = time.perf_counter() - start
    report("4 symmetric-2d-form",
           rep.passed and rep.max_rel_error <= 1e-6 and algebra_worst <= 1e-12,
           f"mixed rel {rep.max_rel_error:.3e}, composition gap "
           f"{algebra_worst:.3e}, {elapsed:.1f}s")


def test_criterion_5_radiative_transfer():
    """Pointwise closed form, energy conservation, mixed-domain agreement."""
    start = time.perf_counter()
    p = TransportParams(1.0, 1.0, 1.0)

    # (a) pointwise value against the direct-arithmetic oracle
    q = math.sqrt(1.0 - 0.25)
    oracle = math.exp(q) / q * math.exp(-1.0) / (2.0 * math.pi)
    assert oracle == pytest.approx(0.16073300792969798, abs=1e-15)
    got = intensity(p, 0.5, 1.0).smooth
    point_ok = abs(got - oracle) <= 1e-6

    # (b) energy conservation at c t / ell in {0.5, 1, 2, 5}
    energy_worst = max(abs(check_energy(p, t, SPEC) - 1.0)
                       for t in (0.5, 1.0, 2.0, 5.0))

    # (c) closed form vs FL resolvent on the (k, t) grid
    samples = [(k, t) for k in (0.0, 0.5, 1.0, 2.0) for t in (0.5, 1.0, 2.0)]
    rep = verify_rte_mixed(p, samples, SPEC, 48, tolerance=1e-5)
    elapsed = time.perf_counter() - start
    report("5 radiative-transfer",
           point_ok and energy_worst <= 1e-8 and rep.passed
           and elapsed < 120.0,
           f"point err {abs(got - oracle):.2e}, energy err {energy_worst:.2e},"
           f" mixed rel {rep.max_rel_error:.3e}, {elapsed:.1f}s")


def test_criterion_6_laplace_engine():
    """Roundtrip on the catalog at 48 nodes; shift and damping properties."""
    from fltrans.laplace import TimeOriginal, forward_laplace

    start = time.perf_counter()
    worst_rt = 0.0
    for entry in catalog_list():
        worst_rt = max(worst_rt,
                       roundtrip_check(entry.f, (0.5, 1.0, 2.0), 48, SPEC))

    worst_prop = 0.0
    base = EXP1.f
    for a in (0.5, 1.0):
        shifted = TimeOriginal(
            lambda t, a=a: math.exp(-(t - a)) if t >= a else 0.0, sigma0=-1.0)
        for s in (0.7, 1.5):
            got = forward_laplace(shifted, s, SPEC)
            want = math.exp(-a * s) * forward_laplace(base, s, SPEC)
            worst_prop = max(worst_prop, abs(got - want))
    for b in (0.5, 1.0):
        damped = TimeOriginal(lambda t, b=b: math.exp(-b * t) * math.exp(-t),
                              sigma0=-1.0 - b)
        for s in (0.5, 2.0):
            got = forward_laplace(damped, s, SPEC)
            want = forward_laplace(base, s + b, SPEC)
            worst_prop = max(worst_prop, abs(got - want))
    elapsed = time.perf_counter() - start
    report("6 laplace-roundtrip",
           worst_rt <= 1e-8 and worst_prop <= 1e-9,
           f"roundtrip rel {worst_rt:.3e}, property err {worst_prop:.3e}, "
           f"{elapsed:.1f}s")


def test_criterion_7_radial_round_trip():
    """forward-then-inverse for Gaussian and Yukawa profiles, rel <= 1e-6.

    The Yukawa profile e^{-r}/r is not radially integrable in d = 1
    (logarithmic divergence at the origin), so its leg runs in d in {2, 3}
    with the Gaussian covering all three dimensions.
    """
    start = time.perf_counter()
    outer = QuadratureSpec(abs_tol=1e-9, rel_tol=3e-8, max_subdivisions=400)
    gaussian = RadialProfile(lambda r: math.exp(-0.5 * r * r),
                             decay_class="gaussian")
    yukawa = RadialProfile(lambda r: math.exp(-r) / r if r > 0 else 0.0,
                           decay_class="exponential")
    worst = 0.0
    legs = [(gaussian, "gaussian", d, r) for d in (1, 2, 3)
            for r in (0.5, 1.5)]
    legs += [(yukawa, "yukawa", 2, 1.0), (yukawa, "yukawa", 3, 0.5),
             (yukawa, "yukawa", 3, 1.0)]
    for profile, name, d, r in legs:
        dim = Dimension(d)
        decay = "gaussian" if name == "gaussian" else "algebraic"
        image = RadialProfile(lambda k: forward(dim, profile, k, SPEC),
                              decay_class=decay)
        got = inverse(dim, image, r, outer)
        want = profile.eval(r)
        rel = abs(got - want) / abs(want)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report("7 radial-round-trip", worst <= 1e-6,
           f"max rel err {worst:.3e}, {elapsed:.1f}s")
