"""Command-line interface.

Subcommands:

* ``eval``     analytic point evaluation of the configured link
* ``mc``       Monte Carlo run (--slots, --seed)
* ``sweep``    parameter sweep (--axis, --values/--range, --overlay, --engine)
* ``optimize`` constrained maximization of key rate (--var, --qber-max, --bounds)
* ``validate`` capture-model comparison table (exact vs grid vs classical)

Global flags: --config, --out, --format {table,csv,json} (--plot-data is an
alias for --format csv), --quiet. The UAVQKD_CONFIG environment variable
supplies a default config path. Exit codes: 0 success, 1 usage error,
2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import analytics, config, montecarlo, output
from .beam import build_grid, capture_classical, capture_exact, capture_grid
from .errors import ConfigError, NumericError
from .sweep import SWEEPABLE, SweepSpec, optimize, sweep

log = logging.getLogger("uavqkd")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_AXIS_KIND = {
    "wz": "length",
    "sigma_theta_e": "angle",
    "sigma_aoa": "angle",
    "theta_fov": "angle",
    "B_lambda": "radiance",
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _qty(text: str, kind: str) -> float:
    """CLI quantity: unit suffix honored, bare numbers read as SI."""
    try:
        return config.parse_quantity(text, kind)
    except ConfigError:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"cannot parse {text!r} as {kind}") from None


def _qty_list(text: str, kind: str) -> tuple[float, ...]:
    return tuple(_qty(part, kind) for part in text.split(","))


def _parse_range(text: str, kind: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError("--range expects start:stop:count")
    lo, hi, n = _qty(parts[0], kind), _qty(parts[1], kind), int(parts[2])
    if n < 2 or not lo < hi:
        raise ConfigError("--range needs start < stop and count >= 2")
    return tuple(np.linspace(lo, hi, n).tolist())


def build_parser() -> _Parser:
    p = _Parser(prog="uavqkd", description="UAV-to-ground free-space QKD link simulator")
    p.add_argument("--config", default=os.environ.get("UAVQKD_CONFIG"), help="config file path")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--plot-data", action="store_true", help="alias for --format csv")
    p.add_argument("--quiet", action="store_true", help="suppress the resolved-parameter log")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("eval", help="analytic point evaluation")

    mc = sub.add_parser("mc", help="Monte Carlo run")
    mc.add_argument("--slots", type=int, default=None)
    mc.add_argument("--seed", type=int, default=None)

    sw = sub.add_parser("sweep", help="parameter sweep")
    sw.add_argument("--axis", required=True, choices=SWEEPABLE)
    group = sw.add_mutually_exclusive_group(required=True)
    group.add_argument("--values", help="comma-separated values (units allowed)")
    group.add_argument("--range", dest="value_range", help="start:stop:count")
    sw.add_argument("--overlay", help="name=v1,v2,... second axis")
    sw.add_argument("--engine", choices=("analytic", "monte_carlo", "both"), default="analytic")

    op = sub.add_parser("optimize", help="maximize key rate under a QBER ceiling")
    op.add_argument("--var", required=True, choices=("wz", "theta_fov"))
    op.add_argument("--qber-max", type=float, required=True)
    op.add_argument("--bounds", required=True, help="lo:hi (units allowed)")

    va = sub.add_parser("validate", help="capture-model comparison table")
    va.add_argument("--wz", default="5cm,10cm", help="comma-separated beam radii")
    va.add_argument("--rd-max", default="0.2", help="largest displacement")
    va.add_argument("--points", type=int, default=50)
    va.add_argument("--ng", type=int, default=None, help="grid segments (default: config Ng)")
    return p


def _load_config(args) -> config.LinkConfig:
    cfg = config.load_config(args.config) if args.config else config.LinkConfig()
    if not args.quiet:
        log.info("resolved parameters:\n%s", config.dumps(cfg).rstrip())
    return cfg


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_eval(args, cfg) -> str:
    report = analytics.evaluate(config.build_context(cfg))
    return output.emit(report, args.format)


def _cmd_mc(args, cfg) -> str:
    if args.slots is not None:
        cfg = replace(cfg, n_slots=args.slots)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    ctx = config.build_context(cfg)
    start = time.perf_counter()
    mc = montecarlo.run(ctx, cfg.n_slots, cfg.seed)
    elapsed = time.perf_counter() - start
    log.info(
        "mc: slots=%d batches=%d clamp_rate=%.6g slots_per_s=%.4g",
        mc.n_slots, mc.batches, mc.clamp_rate, mc.n_slots / elapsed,
    )
    return output.emit(mc.estimates, args.format)


def _cmd_sweep(args, cfg) -> str:
    kind = _AXIS_KIND[args.axis]
    values = _qty_list(args.values, kind) if args.values else _parse_range(args.value_range, kind)
    overlay = overlay_values = None
    if args.overlay:
        name, _, vals = args.overlay.partition("=")
        if not vals:
            raise ConfigError("--overlay expects name=v1,v2,...")
        overlay = name.strip()
        if overlay not in _AXIS_KIND:
            raise ConfigError(f"unknown overlay axis {overlay!r}")
        overlay_values = _qty_list(vals, _AXIS_KIND[overlay])
    spec = SweepSpec(
        axis=args.axis,
        values=values,
        overlay=overlay,
        overlay_values=overlay_values or (),
        engine=args.engine,
    )
    return output.emit(sweep(cfg, spec), args.format)


def _cmd_optimize(args, cfg) -> str:
    parts = args.bounds.split(":")
    if len(parts) != 2:
        raise ConfigError("--bounds expects lo:hi")
    kind = _AXIS_KIND[args.var]
    result = optimize(
        cfg, args.var, args.qber_max, (_qty(parts[0], kind), _qty(parts[1], kind))
    )
    rows = output.report_rows(result.report)
    rows[0]["axis"] = result.variable
    rows[0]["axis_value"] = result.value
    rows[0]["overlay"] = "feasible"
    rows[0]["overlay_value"] = int(result.feasible)
    if not result.feasible:
        log.warning(
            "no point satisfies qber <= %g; reporting the minimum-QBER point", result.qber_max
        )
    return output.render(rows, args.format, output.PERF_COLUMNS)


def _cmd_validate(args, cfg) -> str:
    wz_values = _qty_list(args.wz, "length")
    rd_max = _qty(args.rd_max, "length")
    ng = args.ng or cfg.Ng
    rd_grid = np.linspace(0.0, rd_max, args.points)
    rows = []
    for wz in wz_values:
        exact = capture_exact(rd_grid, wz, cfg.ra)
        approx = capture_grid(build_grid(cfg.ra, wz, ng), rd_grid)
        for rd, mu_exact, mu_grid in zip(rd_grid, exact, approx):
            classical = capture_classical(rd, wz, cfg.ra)
            rows.append(
                {
                    "wz": wz,
                    "rd": float(rd),
                    "mu_p_exact": float(mu_exact),
                    "mu_p_grid": float(mu_grid),
                    "mu_p_classical": classical.value,
                    "classical_valid": classical.valid,
                }
            )
    cols = ["wz", "rd", "mu_p_exact", "mu_p_grid", "mu_p_classical", "classical_valid"]
    return output.render(rows, args.format, cols)


_COMMANDS = {
    "eval": _cmd_eval,
    "mc": _cmd_mc,
    "sweep": _cmd_sweep,
    "optimize": _cmd_optimize,
    "validate": _cmd_validate,
}


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.plot_data:
        args.format = "csv"
    try:
        cfg = _load_config(args)
        text = _COMMANDS[args.command](args, cfg)
        _write(args, text)
    except (ConfigError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
