"""Closed forms the benchmark checks fltrans against.

These are written from the textbook formulas with the standard library
only, apart from the program, so a fault in fltrans cannot hide in both
sides of a check.  ``selftest.py`` tests them against scipy and mpmath.
"""

from __future__ import annotations

import math


# --------------------------------------------------------------------------
# catalog originals f(u) and their Laplace images fhat(s), by catalog id
# --------------------------------------------------------------------------

def _parse(fid: str) -> tuple[str, list[float]]:
    name, _, params = fid.partition(":")
    return name, [float(p) for p in params.split(",")] if params else []


def original(fid: str, u: float) -> float:
    """f(u) of the catalog original named fid (``exp_decay:1`` etc.)."""
    name, p = _parse(fid)
    if name == "exp_decay":
        return math.exp(-p[0] * u)
    if name == "poly_exp":
        return u ** int(p[0]) * math.exp(-p[1] * u)
    if name == "sine":
        return math.sin(p[0] * u)
    if name == "unit":
        return 1.0
    raise KeyError(fid)


def image(fid: str, s: complex) -> complex:
    """Laplace image fhat(s) of the catalog original named fid."""
    name, p = _parse(fid)
    if name == "exp_decay":
        return 1.0 / (s + p[0])
    if name == "poly_exp":
        n = int(p[0])
        return math.factorial(n) / (s + p[1]) ** (n + 1)
    if name == "sine":
        return p[0] / (s * s + p[0] * p[0])
    if name == "unit":
        return 1.0 / s
    raise KeyError(fid)


def pole_height(fid: str) -> float:
    """Largest |Im| of a singularity of the image (sine:a has poles at +-ia)."""
    name, p = _parse(fid)
    return p[0] if name == "sine" else 0.0


# --------------------------------------------------------------------------
# radial profiles and their d-dimensional Fourier transforms
#     F(k) = integral over R^d of f(|x|) exp(-i k.x) dx
# --------------------------------------------------------------------------

PROFILES = {
    "gaussian": lambda r: math.exp(-0.5 * r * r),
    "exponential": lambda r: math.exp(-r),
    "yukawa": lambda r: math.exp(-r) / r if r > 0.0 else 0.0,
}


def radial_ft(profile: str, d: int, k: float) -> float:
    """Closed-form d-dimensional transform of a named radial profile."""
    if profile == "gaussian":
        return (2.0 * math.pi) ** (0.5 * d) * math.exp(-0.5 * k * k)
    if profile == "exponential":
        return (2.0 ** d * math.pi ** (0.5 * (d - 1)) * math.gamma(0.5 * (d + 1))
                * (1.0 + k * k) ** (-0.5 * (d + 1)))
    if profile == "yukawa":  # d >= 2
        return (2.0 ** (d - 1) * math.pi ** (0.5 * (d - 1))
                * math.gamma(0.5 * (d - 1)) * (1.0 + k * k) ** (-0.5 * (d - 1)))
    raise KeyError(profile)


# --------------------------------------------------------------------------
# 2-D radiative transfer: the paper's closed-form intensity
# --------------------------------------------------------------------------

def rte_intensity(c: float, ell: float, a0: float, r: float,
                  t: float) -> tuple[float, float]:
    """(smooth part, ballistic-shell weight) of i(r, t), r off the shell."""
    ct = c * t
    weight = a0 / (2.0 * math.pi) * math.exp(-ct / ell)
    if r >= ct:
        return 0.0, weight
    q = math.sqrt(ct * ct - r * r)
    return weight * math.exp(q / ell) / (ell * q), weight


def rel_error(got: float, want: float, floor: float) -> float:
    """|got - want| relative to max(|want|, floor)."""
    return abs(got - want) / max(abs(want), floor)
