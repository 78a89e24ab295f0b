#!/usr/bin/env python3
"""Self-tests of the benchmark's checks, independent of fltrans.

    python3 bench/selftest.py

* The closed forms in closed_forms.py (radial transforms of the Gaussian
  and exponential profiles in d = 1..6 and of Yukawa in d = 2, 3, the
  catalog's Laplace pairs, and the radiative transfer intensity) are
  tested against scipy.integrate and scipy.special.
* For row 2.1, d = 2, exp_decay:1, a sample of failing ``wave`` points is
  inverted with mpmath.invertlaplace at 30 digits.  The program's
  quadrature hop agrees with it and its inversion does not, and every such
  point lies where the contour radius comes from the branch height: the
  failures belong to the inverse_laplace fault, not to the check.

scipy and mpmath serve here only; the benchmark runs without them.
Exits with status 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import random
import sys

import mpmath
from scipy import integrate, special

import closed_forms as cf
import gen_wave
import run
import workloads


def radial_numeric(profile: str, d: int, k: float) -> float:
    # F(k) = (2 pi)^(d/2) k^(1-d/2) int_0^inf f(r) r^(d/2) J_(d/2-1)(k r) dr
    f = cf.PROFILES[profile]
    nu = 0.5 * d - 1.0
    value, _ = integrate.quad(lambda r: f(r) * r ** (0.5 * d) * special.jv(nu, k * r),
                              0.0, 60.0, limit=800, epsabs=1e-14, epsrel=1e-12)
    return (2.0 * math.pi) ** (0.5 * d) * k ** (1.0 - 0.5 * d) * value


def check_radial_closed_forms() -> float:
    cases = [("gaussian", d) for d in range(1, 7)]
    cases += [("exponential", d) for d in range(1, 7)]
    cases += [("yukawa", 2), ("yukawa", 3)]
    worst = 0.0
    for profile, d in cases:
        for k in (0.5, 2.0, 5.0):
            want = radial_numeric(profile, d, k)
            worst = max(worst, cf.rel_error(cf.radial_ft(profile, d, k), want, 1e-10))
    return worst


def check_laplace_pairs() -> float:
    worst = 0.0
    for fid in ("exp_decay:0.5", "exp_decay:1", "exp_decay:2", "poly_exp:1,1",
                "poly_exp:2,1", "sine:1", "unit"):
        for s in (1.5, 3.0):
            value, _ = integrate.quad(lambda t: math.exp(-s * t) * cf.original(fid, t),
                                      0.0, math.inf, limit=400, epsabs=1e-14,
                                      epsrel=1e-12)
            worst = max(worst, cf.rel_error(cf.image(fid, s).real, value, 0.0))
    return worst


def check_rte_energy() -> float:
    # the shell carries 2 pi * weight (delta(r - ct)/r against 2 pi r dr)
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 5.0):
        smooth, _ = integrate.quad(
            lambda th: 2.0 * math.pi * t * math.sin(th) * t * math.cos(th)
            * cf.rte_intensity(1.0, 1.0, 1.0, t * math.sin(th), t)[0],
            0.0, 0.5 * math.pi, epsabs=1e-14, epsrel=1e-13)
        weight = cf.rte_intensity(1.0, 1.0, 1.0, 2.0 * t, t)[1]
        worst = max(worst, abs(smooth + 2.0 * math.pi * weight - 1.0))
    return worst


def mpmath_row21_d2_exp1(k: float, t: float) -> float:
    """Row 2.1, d = 2, f = exp(-u): invert 1/(q (q + 1)), q = sqrt(s^2 + k^2).

    The Talbot contour must cross the imaginary axis above the branch
    segment [-ik, ik]; 2M/5 = 4kt/pi puts the crossing at height 2k.
    """
    def image(s):
        q = s * mpmath.sqrt(1 + (k / s) ** 2)  # cut along [-ik, ik]
        return 1 / (q * (q + 1))

    degree = max(120, math.ceil(10.0 * k * t / math.pi))
    with mpmath.workdps(30):
        return float(mpmath.invertlaplace(image, t, method="talbot", degree=degree))


def check_wave_fault(min_failing: int = 6) -> str:
    """Every committed wave point of the row, the example (14, 9), and
    fresh draws from the wave box until min_failing points fail."""
    from fltrans import numerics, pairs, verify

    row, f = pairs.lookup("2.1"), pairs.catalog_lookup("exp_decay:1")
    spec = numerics.QuadratureSpec()

    def hops(k, t):
        return (verify.spacetime_transform(row, 2, f, k, t, spec),
                verify.fl_inversion(row, 2, f, k, t, workloads.NODES))

    data = json.loads(workloads.WAVE_INPUTS.read_text(encoding="utf-8"))
    points = [(k, t) for pid, d, fid, k, t in data["pair_points"]
              if (pid, d, fid) == ("2.1", 2, "exp_decay:1")]
    points.append((14.0, 9.0))  # 1.2e55 against 0.029 at the time of writing
    failing = sum(workloads.agreement(*hops(k, t)) > workloads.PAIR_TOL
                  for k, t in points)
    rng = random.Random(1)
    while failing < min_failing:
        k, t = gen_wave.draw_kt(rng)
        lhs, rhs = hops(k, t)
        if abs(lhs) >= verify.MAGNITUDE_FLOOR and workloads.agreement(lhs, rhs) > workloads.PAIR_TOL:
            points.append((k, t))
            failing += 1
    lines = []
    for k, t in points:
        oracle = mpmath_row21_d2_exp1(k, t)
        lhs, rhs = hops(k, t)
        quad_err = cf.rel_error(lhs, oracle, 1e-12)
        inv_err = cf.rel_error(rhs, oracle, 1e-12)
        fails = workloads.agreement(lhs, rhs) > workloads.PAIR_TOL
        in_regime = workloads.radius_set_by_branch(k + f.image_pole_height, t)
        explained = inv_err > workloads.PAIR_TOL and in_regime if fails else True
        if quad_err > 1e-8 or not explained:
            raise AssertionError(f"k={k} t={t}: oracle {oracle!r}, quadrature {lhs!r}, "
                                 f"inversion {rhs!r}, fault regime {in_regime}")
        lines.append(f"k={k:.3f} t={t:.3f} oracle={oracle:.6g} quadrature "
                     f"err={quad_err:.1e} inversion err={inv_err:.1e}"
                     f"{' (wave counts it failed)' if fails else ''}")
    return "\n    ".join(lines)


def main() -> int:
    run.import_program()
    checks = (
        ("radial closed forms vs scipy quad/jv", check_radial_closed_forms, 1e-8),
        ("catalog Laplace pairs vs scipy quad", check_laplace_pairs, 1e-9),
        ("RTE closed form conserves energy (scipy quad)", check_rte_energy, 1e-10),
    )
    failed = 0
    for name, fn, tol in checks:
        worst = fn()
        ok = worst <= tol
        failed += not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: worst {worst:.2e} (tol {tol:.0e})")
    try:
        detail = check_wave_fault()
        print("PASS wave failures of row 2.1 d=2 exp_decay:1 are the inverse_laplace "
              f"fault (mpmath talbot, 30 digits):\n    {detail}")
    except AssertionError as exc:
        failed += 1
        print(f"FAIL wave fault attribution: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
