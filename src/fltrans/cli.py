"""Command-line front end.

Subcommands:

    pairs      list the double-transform registry (optionally one row)
    verify     run mixed-domain verification of registry rows
    rte        evaluate the 2-D radiative transfer solution to CSV
    transform  forward/inverse radial Fourier transforms of named profiles

Exit status is 0 only when every requested check or row succeeded.  CSV
output uses a mandatory header row, LF line endings, UTF-8, and shortest
round-trip decimal formatting.  JSON reports embed "schema": 1.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from typing import Optional, Sequence

from .numerics import DomainError, QuadratureSpec
from .pairs import (
    UnknownPairError,
    catalog_list,
    catalog_lookup,
    lookup,
    registry_text,
)
from .radial_fourier import Dimension, RadialProfile, forward_result, \
    inverse_result
from .rte2d import TransportParams, check_energy, intensity
from .verify import reports_to_text, verify_all

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    """Invalid or incomplete command configuration."""


def _numbers(text: str, kind=float) -> tuple:
    try:
        return tuple(kind(x) for x in text.split(",") if x != "")
    except ValueError:
        raise ConfigError(f"expected a comma-separated {kind.__name__} list, "
                          f"got {text!r}")


def _emit(text: str, path: Optional[str]) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_pairs_list(args: argparse.Namespace) -> int:
    rows = None if args.pair_id is None else (lookup(args.pair_id),)
    _emit(registry_text(rows) + "\n", args.output_path)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    dimensions = _numbers(args.dim, int)
    if any(d < 1 for d in dimensions):
        raise ConfigError("dimensions must be >= 1")
    if not args.tol > 0:
        raise ConfigError("--tol must be positive")
    if args.originals == "all":
        originals = catalog_list()
    else:
        originals = [catalog_lookup(oid) for oid in args.originals.split(",")]
    pair_ids = None if args.pair_id == "all" else [lookup(args.pair_id).id]
    reports = verify_all(dimensions, args.tol, nodes=args.nodes,
                         originals=originals, pair_ids=pair_ids)
    if not reports:
        raise ConfigError(
            f"no admissible (pair, dimension) combinations for pair="
            f"{args.pair_id} dims={dimensions}")
    if args.output_format == "json-report":
        text = json.dumps([r.to_dict() for r in reports], indent=1) + "\n"
    else:
        text = reports_to_text(reports)
    _emit(text, args.output_path)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILED


def cmd_rte(args: argparse.Namespace) -> int:
    p = TransportParams(args.c, args.ell, args.A0)
    t_grid, r_grid = _numbers(args.t), _numbers(args.r)
    if not t_grid:
        raise ConfigError("rte requires --t")
    if not r_grid and not args.energy:
        raise ConfigError("rte requires --r (or --energy)")
    spec = QuadratureSpec()
    rows = []
    for t in t_grid:
        for r in r_grid:
            value = intensity(p, r, t)
            rows.append((r, t, value.smooth, value.ballistic_weight))
    out = _csv_text(("r", "t", "smooth", "ballistic_weight"), rows)
    if args.energy:
        energy_rows = [(t, check_energy(p, t, spec)) for t in t_grid]
        energy_csv = _csv_text(("t", "energy"), energy_rows)
        if args.output_path is None:
            out += energy_csv
        else:
            _emit(energy_csv, args.output_path + ".energy.csv")
    _emit(out, args.output_path)
    return EXIT_OK


_PROFILES = {
    "gaussian": {
        "dims": (1, 2, 3, 4, 5, 6),
        "make": lambda d: RadialProfile(lambda r: math.exp(-0.5 * r * r),
                                        decay_class="gaussian"),
    },
    "exponential": {
        "dims": (1, 2, 3, 4, 5, 6),
        "make": lambda d: RadialProfile(lambda r: math.exp(-r),
                                        decay_class="exponential"),
    },
    "yukawa": {
        "dims": (2, 3),
        "make": lambda d: RadialProfile(
            lambda r: math.exp(-r) / r if r > 0 else 0.0,
            decay_class="exponential"),
    },
    "gaussian-image": {
        "dims": (1, 2, 3, 4, 5, 6),
        "make": lambda d: RadialProfile(
            lambda k: (2 * math.pi) ** (0.5 * d) * math.exp(-0.5 * k * k),
            decay_class="gaussian"),
    },
    "yukawa-image": {
        "dims": (2, 3),
        "make": lambda d: RadialProfile(
            (lambda k: 2 * math.pi / math.sqrt(1 + k * k)) if d == 2
            else (lambda k: 4 * math.pi / (1 + k * k)),
            decay_class="algebraic"),
    },
}


def cmd_transform(args: argparse.Namespace) -> int:
    d = args.dim
    entry = _PROFILES.get(args.profile)
    if entry is None:
        raise ConfigError(
            f"unknown profile {args.profile!r}; choices: "
            f"{', '.join(sorted(_PROFILES))}")
    if d not in entry["dims"]:
        raise ConfigError(
            f"profile {args.profile!r} is not defined for d = {d}")
    grid = _numbers(args.grid)
    if not grid:
        raise ConfigError("transform requires --grid")
    spec = QuadratureSpec(abs_tol=max(1e-14, 0.01 * args.tol),
                          rel_tol=args.tol)
    dim = Dimension(d)
    profile = entry["make"](d)
    hop = forward_result if args.direction == "forward" else inverse_result
    rows = []
    for x in grid:
        res = hop(dim, profile, x, spec)
        rows.append((x, float(res.value), res.error_estimate, res.converged))
    _emit(_csv_text(("x", "value", "error_estimate", "converged"), rows),
          args.output_path)
    return EXIT_OK if all(row[3] for row in rows) else EXIT_FAILED


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fltrans",
        description="Simultaneous Fourier-Laplace double transforms: "
                    "registry, verification, and 2-D radiative transfer.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pairs = sub.add_parser("pairs", help="list the transform-pair registry")
    p_pairs.add_argument("--id", dest="pair_id")
    p_pairs.add_argument("--out", dest="output_path")
    p_pairs.set_defaults(handler=cmd_pairs_list)

    p_verify = sub.add_parser("verify", help="verify registry rows")
    p_verify.add_argument("--pair", dest="pair_id", default="all",
                          help="row id (e.g. 2.1), 2D-SDT, or 'all'")
    p_verify.add_argument("--dim", default="2,3",
                          help="comma-separated dimensions")
    p_verify.add_argument("--f", dest="originals", default="all",
                          help="catalog id like exp_decay:1 (comma-separated) "
                               "or 'all'")
    p_verify.add_argument("--tol", type=float, default=1e-6)
    p_verify.add_argument("--nodes", type=int, default=48)
    p_verify.add_argument("--out", dest="output_path")
    p_verify.add_argument("--format", dest="output_format",
                          default="text-table",
                          choices=("text-table", "json-report"))
    p_verify.set_defaults(handler=cmd_verify)

    p_rte = sub.add_parser("rte", help="2-D radiative transfer solution")
    p_rte.add_argument("--c", type=float, default=1.0)
    p_rte.add_argument("--ell", type=float, default=1.0)
    p_rte.add_argument("--A0", type=float, default=1.0)
    p_rte.add_argument("--t", default="", help="comma-separated times")
    p_rte.add_argument("--r", default="", help="comma-separated radii")
    p_rte.add_argument("--energy", action="store_true",
                       help="emit the t,energy companion table")
    p_rte.add_argument("--out", dest="output_path")
    p_rte.set_defaults(handler=cmd_rte)

    p_tr = sub.add_parser("transform", help="radial Fourier transforms")
    p_tr.add_argument("--direction", choices=("forward", "inverse"),
                      default="forward")
    p_tr.add_argument("--dim", type=int, default=2)
    p_tr.add_argument("--profile", help=", ".join(sorted(_PROFILES)))
    p_tr.add_argument("--grid", default="", help="comma-separated k (or r)")
    p_tr.add_argument("--tol", type=float, default=1e-10,
                      help="relative quadrature tolerance")
    p_tr.add_argument("--out", dest="output_path")
    p_tr.set_defaults(handler=cmd_transform)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, UnknownPairError, DomainError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"fltrans: error: {message}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
