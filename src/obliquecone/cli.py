"""Command-line front end: classify, phase-map, exponent, barrier-check, verify.

All angles are radians unless --degrees is given.  Output is deterministic:
floats are printed with 17 significant digits, CSV uses LF line endings and
'.' decimals, JSON carries a schema_version field and stable key order.
Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import __version__
from . import barrier as bar
from . import exponent as exp_mod
from .errors import ObliqueConeError
from .geometry import ConeGeometry, ObliqueBC
from .verify import SUITE_NAMES, run_suite

SCHEMA_VERSION = 1


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _radians(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


def _text(value, absent: str) -> str:
    """One output value as text; None prints as `absent`."""
    if value is None:
        return absent
    return _fmt(value) if isinstance(value, float) else str(value)


def _emit(payload: dict, as_json: bool) -> int:
    """Print a payload as one JSON line headed by the schema version, or as
    `key: value` lines; a missing value prints as `absent`."""
    if as_json:
        print(json.dumps({"schema_version": SCHEMA_VERSION, **payload}))
    else:
        for key, value in payload.items():
            print(f"{key}: {_text(value, 'absent')}")
    return 0


def _witness_digest(witnesses) -> str:
    canonical = ";".join(
        f"{name}={_fmt(value)}@{_fmt(tol)}" for name, value, tol in witnesses
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def _classified(theta0: float, ss: list[float]):
    """The geometry and, per oblique angle, the regime report and the fields
    that `classify` prints and every phase-map row starts with: one
    `classify_many` call for the whole theta0 row."""
    geom = ConeGeometry(theta0=theta0)
    reports = exp_mod.classify_many(geom, [ObliqueBC.for_cone(geom, s) for s in ss])
    return geom, [
        (report, {"theta0": theta0, "s": s, "label": report.label,
                  "critical_exponent": report.critical_exponent, "s0": report.s0})
        for s, report in zip(ss, reports)
    ]


def cmd_classify(args: argparse.Namespace) -> int:
    _, [(report, fields)] = _classified(
        _radians(args.theta0, args.degrees), [_radians(args.s, args.degrees)]
    )
    if args.json:
        witnesses = [
            {"name": name, "value": value, "tolerance": tol}
            for name, value, tol in report.witnesses
        ]
        return _emit({**fields, "witnesses": witnesses}, as_json=True)
    _emit({k: v for k, v in fields.items() if v is not None}, as_json=False)
    for name, value, tol in report.witnesses:
        print(f"witness {name}: {_fmt(value)} (tolerance {_fmt(tol)})")
    return 0


def _sweep_values(args: argparse.Namespace) -> list[tuple[float, list[tuple[float, bool]]]]:
    """(theta0, [(s, clamped), ...]) rows in deterministic row-major order."""
    if args.theta0_count < 2 or args.s_count < 2:
        raise ObliqueConeError("sweep counts must be at least 2")
    if args.s_mode == "fraction" and not (0.0 < args.s_lo <= args.s_hi < 1.0):
        raise ObliqueConeError("fractions must lie strictly inside (0, 1)")
    # np.linspace warns and returns NaN when a bound or the span is not finite
    for name in ("theta0", "s"):
        lo, hi = getattr(args, f"{name}_lo"), getattr(args, f"{name}_hi")
        for option, value in ((f"--{name}-lo", lo), (f"--{name}-hi", hi)):
            if not math.isfinite(value):
                raise ObliqueConeError(f"{option} must be finite, got {value}")
        if not math.isfinite(hi - lo):
            raise ObliqueConeError(
                f"--{name}-lo and --{name}-hi lie too far apart, got ({lo}, {hi})"
            )
    theta0s = np.linspace(
        _radians(args.theta0_lo, args.degrees),
        _radians(args.theta0_hi, args.degrees),
        args.theta0_count,
    )
    rows: list[tuple[float, list[tuple[float, bool]]]] = []
    for theta0 in theta0s:
        theta0 = float(theta0)
        lo, hi = ConeGeometry(theta0=theta0).admissible_s_interval()
        inset = 1e-9 * (hi - lo)
        cells: list[tuple[float, bool]] = []
        for t in np.linspace(args.s_lo, args.s_hi, args.s_count):
            if args.s_mode == "fraction":
                s, clamped = lo + float(t) * (hi - lo), False
            else:
                s = _radians(float(t), args.degrees)
                clamped = False
                if s <= lo:
                    s, clamped = lo + inset, True
                elif s >= hi:
                    s, clamped = hi - inset, True
            cells.append((float(s), clamped))
        rows.append((theta0, cells))
    return rows


def cmd_phase_map(args: argparse.Namespace) -> int:
    rows = []
    for theta0, cells in _sweep_values(args):
        geom, classified = _classified(theta0, [s for s, _ in cells])
        for (s, clamped), (report, fields) in zip(cells, classified):
            rows.append({
                **fields,
                "b_at_1": exp_mod.boundary_mismatch(geom, 1.0, s),
                "witnesses_digest": _witness_digest(report.witnesses),
                "clamped": int(clamped),
            })
    try:
        handle = open(args.output, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    with handle:
        if args.format == "csv":
            handle.write(f"# obliquecone {__version__} schema={SCHEMA_VERSION}\n")
            # _sweep_values rejects counts below 2, so a first row exists
            handle.write(",".join(rows[0]) + "\n")
            for row in rows:
                handle.write(",".join(_text(v, "") for v in row.values()) + "\n")
        else:
            payload = {
                "schema_version": SCHEMA_VERSION,
                "tool": "obliquecone",
                "version": __version__,
                "rows": rows,
            }
            handle.write(json.dumps(payload, indent=None, separators=(",", ":")))
            handle.write("\n")
    return 0


def cmd_exponent(args: argparse.Namespace) -> int:
    theta0 = _radians(args.theta0, args.degrees)
    geom = ConeGeometry(theta0=theta0)
    if args.neumann:
        if args.s is not None:
            raise ObliqueConeError("--s is not used with --neumann")
        fields = {"mode": 1}
        root = exp_mod.neumann_exponent(geom)
        mismatch = exp_mod.neumann_mismatch(geom, root)
    else:
        if args.s is None:
            raise ObliqueConeError("--s is required unless --neumann is given")
        s = _radians(args.s, args.degrees)
        fields = {"s": s, "mode": 0}
        report = exp_mod.classify_regime(geom, ObliqueBC.for_cone(geom, s))
        root, mismatch = report.critical_exponent, report.mismatch_at_root
    return _emit(
        {"theta0": theta0, **fields, "exponent": root, "mismatch_at_root": mismatch},
        args.json,
    )


def cmd_barrier_check(args: argparse.Namespace) -> int:
    theta0 = _radians(args.theta0, args.degrees)
    s = _radians(args.s, args.degrees)
    geom = ConeGeometry(theta0=theta0)
    bc = ObliqueBC.for_cone(geom, s)
    threshold = bar.alpha0(geom)
    barrier = bar.build_barrier(geom, args.alpha)
    rc = bar.rotate_coefficients(np.eye(2), bc)
    m1 = bar.m1_coefficient(barrier, bc, rc)
    payload = {
        "theta0": theta0,
        "s": s,
        "alpha": args.alpha,
        "alpha0": threshold,
        "cstar": barrier.cstar,
        "m1_coefficient": m1,
    }
    tilt = args.tilt
    if tilt is None and m1 < 0.0:
        tilt = bar.max_admissible_tilt(bc, barrier, rc)
    if tilt is not None:
        payload["tilt"] = tilt
        payload["m2_coefficient"] = bar.m2_coefficient(barrier, bc, rc, tilt)
    return _emit(payload, args.json)


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    failures = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"[{status}] {res.suite}.{res.name} ({res.seconds:.2f}s) {res.detail}")
        failures += 0 if res.passed else 1
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obliquecone",
        description=(
            "Regularity regimes, critical exponents and barrier checks for "
            "axisymmetric oblique-derivative problems on circular cones."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify the regime of one (theta0, s) pair")
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--degrees", action="store_true", help="inputs are in degrees")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("phase-map", help="sweep (theta0, s) and tabulate regimes")
    p.add_argument("--theta0-lo", type=float, required=True)
    p.add_argument("--theta0-hi", type=float, required=True)
    p.add_argument("--theta0-count", type=int, default=10)
    p.add_argument(
        "--s-mode",
        choices=("absolute", "fraction"),
        default="fraction",
        help="absolute oblique angles (clamped per theta0) or fractions of the admissible interval",
    )
    p.add_argument("--s-lo", type=float, default=0.05)
    p.add_argument("--s-hi", type=float, default=0.95)
    p.add_argument("--s-count", type=int, default=10)
    p.add_argument("--output", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--degrees", action="store_true")
    p.set_defaults(func=cmd_phase_map)

    p = sub.add_parser("exponent", help="critical exponent of one configuration")
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--s", type=float)
    p.add_argument(
        "--neumann",
        action="store_true",
        help="exponent of the first non-axisymmetric Neumann mode instead",
    )
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_exponent)

    p = sub.add_parser("barrier-check", help="barrier and boundary-operator signs")
    p.add_argument("--theta0", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--tilt", type=float)
    p.add_argument("--degrees", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_barrier_check)

    p = sub.add_parser("verify", help="run a module invariant suite")
    p.add_argument(
        "--suite",
        choices=(*SUITE_NAMES, "all"),
        default="all",
    )
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ObliqueConeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
