"""Fit the Gauss-Laguerre rules behind numerics' rate-scaled quadrature.

integrate_semi_infinite, given a decay rate, sums an n-node Gauss-Laguerre
rule for n = 20 and n = 40.  Each rule is fitted at 60 significant digits
with mpmath:

* nodes: the eigenvalues of the n x n Jacobi matrix of the Laguerre
  polynomials (Golub & Welsch 1969), diagonal 2k + 1 and off-diagonal k,
  each polished by Newton's method on L_n;
* weights, stored as w e^x so that a rule needs no exponential:
      w e^x = x e^x / ((n + 1)^2 L_{n+1}(x)^2).

The rules are printed as (node, w e^x) rows, smallest node first, the
order in which numerics sums them, together with the largest deviation of
the rule from the moments k! (k <= 2n - 1) it must integrate exactly.

Usage:
    python tools/laguerre_tables.py           # print the tables
    python tools/laguerre_tables.py --check   # exit 1 unless numerics holds
                                              # them to within 1 ulp
The fit takes about a second; it needs mpmath (the `test` extra).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import mpmath as mp

mp.mp.dps = 60

SIZES = (20, 40)


def _laguerre(n, x):
    # (L_n(x), L_{n-1}(x)) by (k + 1) L_{k+1} = (2k + 1 - x) L_k - k L_{k-1}
    prev, cur = mp.mpf(0), mp.mpf(1)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur, prev


def _rule(n):
    # [(x_i, w_i e^{x_i})] of the n-node rule, smallest node first
    jacobi = mp.matrix(n, n)
    for k in range(n):
        jacobi[k, k] = 2 * k + 1
        if k:
            jacobi[k, k - 1] = jacobi[k - 1, k] = k
    nodes = sorted(mp.eigsy(jacobi, eigvals_only=True))
    rule = []
    for x in nodes:
        for _ in range(8):
            # x L_n' = n (L_n - L_{n-1})
            ln, lm = _laguerre(n, x)
            step = ln * x / (n * (ln - lm))
            x -= step
            if abs(step) < mp.mpf(10) ** (-mp.mp.dps + 5) * x:
                break
        lnext, _ = _laguerre(n + 1, x)
        rule.append((x, x * mp.exp(x) / ((n + 1) ** 2 * lnext ** 2)))
    return rule


def _moment_error(rule):
    # max over k < 2n of |sum w_i x_i^k - k!| / k!
    n = len(rule)
    return max(abs(mp.fsum(w * mp.exp(-x) * x ** k for x, w in rule)
                   / mp.factorial(k) - 1) for k in range(2 * n))


def fit_tables() -> dict:
    """Every rule as name -> ([(node, w e^node)] as floats, moment error)."""
    tables = {}
    for n in SIZES:
        rule = _rule(n)
        tables[f"_LAGUERRE_{n}"] = (
            [(float(x), float(w)) for x, w in rule], float(_moment_error(rule)))
    return tables


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the tables in fltrans.numerics")
    args = parser.parse_args(argv)
    tables = fit_tables()
    if not args.check:
        for name, (rows, err) in tables.items():
            print(f"# {len(rows)} nodes, moment error {err:.1e}")
            print(f"{name} = (")
            for x, w in rows:
                print(f"    ({x!r}, {w!r}),")
            print(")")
        return 0
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from fltrans import numerics

    bad = 0
    for name, (rows, _) in tables.items():
        committed = getattr(numerics, name)
        if len(committed) != len(rows) or any(
                abs(a - b) > math.ulp(a)
                for row, kept in zip(rows, committed)
                for a, b in zip(row, kept)):
            print(f"{name}: committed table differs from the fit")
            bad += 1
    print(f"{len(tables) - bad} of {len(tables)} tables match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
