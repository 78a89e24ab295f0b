"""Fit the coefficient tables behind numerics' fixed-cost J0 and J1.

Two kinds of table, both fitted at 50 significant digits with mpmath:

* x <= 8: Chebyshev series in u = x^2/32 - 1 of J0(x) and of J1(x)/x.
  Both are entire functions of x^2, so the coefficients fall faster than
  geometrically; a series stops at the first coefficient after which the
  tail sum is below 2^-56 (about eps/16).
* x > 8: the modulus-phase form
      J_n(x) = sqrt(2/(pi x)) (P_n cos chi - Q_n sin chi),
      chi = x - (n/2 + 1/4) pi,
  with P_n and (x/8) Q_n written as degree-12 polynomials in y = 64/x^2
  on (0, 1].  Each is the degree-12 truncation of its Chebyshev series in
  2y - 1 (near-minimax), converted to powers of y.  P_n and Q_n come from
  J_n and Y_n:  P = sqrt(pi x/2) (J cos chi + Y sin chi) and
  Q = sqrt(pi x/2) (Y cos chi - J sin chi).

Every table is printed highest degree first, the order in which
numerics sums it (Clenshaw for the Chebyshev series, Horner for the
polynomials), together with its measured truncation or fit error.

Usage:
    python tools/bessel_tables.py           # print the tables
    python tools/bessel_tables.py --check   # exit 1 unless numerics holds
                                            # them to within 1 ulp
The fit takes a few seconds; it needs mpmath (the `test` extra).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

SAMPLES = 96  # Chebyshev nodes of the fits
POLY_DEGREE = 12
TAIL = mp.mpf(2) ** -56


def _cheb_coeffs(g, count):
    # coefficients c_0..c_{count-1} of g(v) = sum c_k T_k(v) on [-1, 1] from
    # its values at SAMPLES Chebyshev points of the first kind
    theta = [mp.pi * (j + mp.mpf(0.5)) / SAMPLES for j in range(SAMPLES)]
    vals = [g(mp.cos(th)) for th in theta]
    out = []
    for k in range(count):
        c = 2 * mp.fsum(v * mp.cos(k * th) for v, th in zip(vals, theta)) / SAMPLES
        out.append(c / 2 if k == 0 else c)
    return out


def _series_table(g):
    coeffs = _cheb_coeffs(g, SAMPLES // 2)
    count = len(coeffs)
    while count > 1 and mp.fsum(abs(c) for c in coeffs[count - 1:]) < TAIL:
        count -= 1
    tail = mp.fsum(abs(c) for c in coeffs[count:])
    return [float(c) for c in reversed(coeffs[:count])], float(tail)


def _cheb_to_power(coeffs, scale, shift):
    # sum c_k T_k(scale*y + shift) rewritten as a polynomial in y,
    # returned lowest degree first
    t_prev, t_cur = [mp.mpf(1)], [shift, scale]
    power = [coeffs[0]] + [mp.mpf(0)] * (len(coeffs) - 1)
    for k in range(1, len(coeffs)):
        for i, a in enumerate(t_cur):
            power[i] += coeffs[k] * a
        # T_{k+1} = 2 (scale*y + shift) T_k - T_{k-1}
        nxt = [mp.mpf(0)] * (len(t_cur) + 1)
        for i, a in enumerate(t_cur):
            nxt[i] += 2 * shift * a
            nxt[i + 1] += 2 * scale * a
        for i, a in enumerate(t_prev):
            nxt[i] -= a
        t_prev, t_cur = t_cur, nxt
    return power


def _modulus_phase(n):
    # (P_n(y), (x/8) Q_n(y)) as functions of y = 64/x^2
    def parts(y):
        x = 8 / mp.sqrt(y)
        chi = x - (mp.mpf(n) / 2 + mp.mpf(1) / 4) * mp.pi
        j, yv = mp.besselj(n, x), mp.bessely(n, x)
        amp = mp.sqrt(mp.pi * x / 2)
        p = amp * (j * mp.cos(chi) + yv * mp.sin(chi))
        q = amp * (yv * mp.cos(chi) - j * mp.sin(chi))
        return p, q * x / 8
    return parts


def _poly_table(h):
    # h on y in (0, 1], v = 2y - 1
    coeffs = _cheb_coeffs(lambda v: h((v + 1) / 2), POLY_DEGREE + 1)
    power = _cheb_to_power(coeffs, mp.mpf(2), mp.mpf(-1))
    table = [float(c) for c in reversed(power)]
    err = 0.0
    for i in range(1, 400):
        y = mp.mpf(i) / 400
        approx = mp.mpf(0)
        for c in table:
            approx = approx * y + c
        err = max(err, float(abs(approx - h(y))))
    return table, err


def fit_tables() -> dict:
    """Every table as name -> (coefficients, measured error)."""
    tables = {
        "_J0_CHEB": _series_table(
            lambda u: mp.besselj(0, mp.sqrt(32 * (u + 1)))),
        "_J1X_CHEB": _series_table(
            lambda u: mp.besselj(1, mp.sqrt(32 * (u + 1))) / mp.sqrt(32 * (u + 1))),
    }
    for n in (0, 1):
        parts = _modulus_phase(n)
        tables[f"_P{n}"] = _poly_table(lambda y: parts(y)[0])
        tables[f"_Q{n}"] = _poly_table(lambda y: parts(y)[1])
    return tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the tables in fltrans.numerics")
    args = parser.parse_args(argv)
    tables = fit_tables()
    if not args.check:
        for name, (coeffs, err) in tables.items():
            print(f"# {len(coeffs)} terms, error {err:.1e}")
            print(f"{name} = (")
            for c in coeffs:
                print(f"    {c!r},")
            print(")")
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from fltrans import numerics

    bad = 0
    for name, (coeffs, _) in tables.items():
        committed = getattr(numerics, name)
        if len(committed) != len(coeffs) or any(
                abs(a - b) > math.ulp(a) for a, b in zip(coeffs, committed)):
            print(f"{name}: committed table differs from the fit")
            bad += 1
    print(f"{len(tables) - bad} of {len(tables)} tables match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
