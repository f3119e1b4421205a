"""Command-line interface.

Subcommands:

* ``eval``     analytic point evaluation of the configured link
* ``mc``       Monte Carlo run (--slots, --seed)
* ``sweep``    parameter sweep (--axis, --values/--range, --overlay, --engine)
* ``optimize`` constrained maximization of key rate (--var, --qber-max, --bounds)
* ``validate`` capture-model comparison table (exact vs grid vs classical)

Global flags: --config, --out, --format {table,csv,json} (--plot-data is an
alias for --format csv), --quiet. Stderr logs the resolved parameters, each
derived value marked ``# derived``, then, at the end of the run, one
``WARNING <Category>: <message>`` line per distinct warning, ending in
``(raised <n> times)`` where it was raised more than once; --quiet silences
both. The UAVQKD_CONFIG environment variable supplies the config path when
--config is not given; it is read at each call of ``main``. Exit codes: 0
success, 1 usage error, 2 validation error.
"""

from __future__ import annotations

import argparse
import collections
import functools
import logging
import math
import os
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from . import analytics, config, montecarlo, output
from .beam import build_grid, capture_classical, capture_exact, capture_grid
from .errors import ConfigError
from .sweep import OPTIMIZABLE, SWEEPABLE, SweepSpec, optimize, sweep

log = logging.getLogger("uavqkd")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map usage to 1
        raise UsageError(message)


def _qty(text: str, kind: str, flag: str) -> float:
    """A quantity given to ``flag``: unit suffix honored, bare numbers read as SI."""
    try:
        return config.parse_quantity(text, kind)
    except ConfigError:
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"{flag}: cannot parse {text!r} as {kind}") from None


def _qty_list(text: str, kind: str, flag: str) -> tuple[float, ...]:
    return tuple(_qty(part, kind, flag) for part in text.split(","))


def _parse_range(text: str, kind: str) -> tuple[float, ...]:
    parts = text.split(":")
    if len(parts) != 3 or not parts[2].strip().isdecimal():
        raise ConfigError("--range expects start:stop:count")
    lo, hi, n = _qty(parts[0], kind, "--range"), _qty(parts[1], kind, "--range"), int(parts[2])
    if n < 2 or not lo < hi:
        raise ConfigError("--range needs start < stop and count >= 2")
    return tuple(np.linspace(lo, hi, n).tolist())


@functools.cache
def build_parser() -> _Parser:
    """The CLI's argument parser, built once per process.

    Parsing leaves the parser unchanged (each call fills a new namespace),
    so every ``main`` call shares it; nothing read from the environment
    is frozen into it.
    """
    p = _Parser(prog="uavqkd", description="UAV-to-ground free-space QKD link simulator")
    p.add_argument("--config", default=None, help="config file path (default: $UAVQKD_CONFIG)")
    p.add_argument("--out", default=None, help="output file (default: stdout)")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--plot-data", action="store_true", help="alias for --format csv")
    p.add_argument("--quiet", action="store_true", help="suppress the resolved-parameter log and warnings")
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
    op.add_argument("--var", required=True, choices=OPTIMIZABLE)
    op.add_argument("--qber-max", type=float, required=True)
    op.add_argument("--bounds", required=True, help="lo:hi (units allowed)")

    va = sub.add_parser("validate", help="capture-model comparison table")
    va.add_argument("--wz", default="5cm,10cm", help="comma-separated beam radii")
    va.add_argument("--rd-max", default="0.2", help="largest displacement")
    va.add_argument("--points", type=int, default=50)
    va.add_argument("--ng", type=int, default=None, help="grid segments (default: config Ng)")
    return p


# a subcommand flag's dest -> the config field it overrides for the run
_FLAG_FIELDS = {"slots": "n_slots", "seed": "seed", "ng": "Ng"}


def _load_config(args) -> config.LinkConfig:
    path = os.environ.get("UAVQKD_CONFIG") if args.config is None else args.config
    cfg = config.load_config(path) if path else config.LinkConfig()
    for dest, key in _FLAG_FIELDS.items():
        if (value := getattr(args, dest, None)) is not None:
            _check_flag(f"--{dest}", key, value)
            cfg = replace(cfg, **{key: value})
    if not args.quiet:
        # each unset given-or-derived field at the value the run derives, with no capture grid built
        derived = {name: config._resolved(cfg, name) for name in config._DERIVED if getattr(cfg, name) is None}
        if cfg.mu_b is None:
            derived["mu_b"] = config._mu_b(cfg, config._resolved(cfg, "theta_fov"), cfg.B_lambda)
        lines = config.dumps(replace(cfg, **derived)).splitlines()
        # a derived value that no config could give (outside its field's range) is a comment, so the log loads back
        out = {k for k, v in derived.items() if not config._FIELDS[k][1] <= v <= config._FIELDS[k][2]}
        marked = [("# " if k in out else "") + line + "  # derived" if (k := line.partition(" = ")[0]) in derived
                  else line for line in lines]
        log.info("resolved parameters:\n%s", "\n".join(marked))
    return cfg


def _write(args, text: str) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"--out: cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _cmd_eval(args, cfg) -> str:
    report = analytics.evaluate(config.build_context(cfg))
    return output.emit(report, args.format)


def _cmd_mc(args, cfg) -> str:
    ctx = config.build_context(cfg)
    start = time.perf_counter()
    mc = montecarlo.run(ctx, cfg.n_slots, cfg.seed)
    elapsed = time.perf_counter() - start
    log.info(
        "mc: slots=%d batches=%d capture_share=%.6g %s slots_per_s=%.4g",
        mc.n_slots, mc.batches, mc.capture_evals / mc.n_slots,
        " ".join(f"{name}={n}" for name, n in zip(montecarlo.OUTCOMES, mc.outcomes)), mc.n_slots / elapsed,
    )
    return output.emit(mc.estimates, args.format)


def _cmd_sweep(args, cfg) -> str:
    kind = config._FIELDS[args.axis][0]
    values = _qty_list(args.values, kind, "--values") if args.values else _parse_range(args.value_range, kind)
    overlay = overlay_values = None
    if args.overlay:
        name, _, vals = args.overlay.partition("=")
        if not vals:
            raise ConfigError("--overlay expects name=v1,v2,...")
        overlay = name.strip()
        if overlay not in SWEEPABLE:
            raise ConfigError(f"--overlay: unknown axis {overlay!r}")
        overlay_values = _qty_list(vals, config._FIELDS[overlay][0], "--overlay")
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
    kind = config._FIELDS[args.var][0]
    result = optimize(cfg, args.var, args.qber_max, tuple(_qty(part, kind, "--bounds") for part in parts))
    rows = output.perf_rows(result.report, result.variable, [result.value], "feasible", [int(result.feasible)])
    if not result.feasible:
        log.warning(
            "no point satisfies qber <= %g; reporting the minimum-QBER point", result.qber_max
        )
    return output.render(rows, args.format, output.PERF_COLUMNS)


def _check_flag(flag: str, key: str, value) -> None:
    """Range-check a CLI override with the config validator of ``key``."""
    try:
        config._check_range(key, value)
    except ConfigError as exc:
        raise ConfigError(f"{flag}: {exc}") from None


def _cmd_validate(args, cfg) -> str:
    wz_values = _qty_list(args.wz, "length", "--wz")
    for wz in wz_values:
        _check_flag("--wz", "wz", wz)
    rd_max = _qty(args.rd_max, "length", "--rd-max")
    if not math.isfinite(rd_max) or rd_max < 0:
        raise ConfigError(f"--rd-max: {rd_max} is not a finite length >= 0")
    if args.points < 1:
        raise ConfigError(f"--points: {args.points} is not >= 1")
    rd_grid = np.linspace(0.0, rd_max, args.points)
    cols = ["wz", "rd", "mu_p_exact", "mu_p_grid", "mu_p_classical", "classical_valid"]
    rows = []
    for wz in wz_values:
        exact = capture_exact(rd_grid, wz, cfg.ra)
        approx = capture_grid(build_grid(cfg.ra, wz, cfg.Ng), rd_grid)
        classical = capture_classical(rd_grid, wz, cfg.ra)
        for values in zip(rd_grid.tolist(), exact.tolist(), approx.tolist(), classical.value.tolist()):
            rows.append(dict(zip(cols, (wz, *values, classical.valid))))
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
    # Warnings go to the log at the end of the run, one line per distinct
    # message with the times it was raised, where --quiet drops them. A
    # warning that no filter matches is counted each time, not once per call
    # site. A caller that installed its own warnings.showwarning keeps it.
    raised = collections.Counter()  # (category name, message) -> times, in the order first raised
    with warnings.catch_warnings():
        if getattr(warnings.showwarning, "__module__", None) == "warnings":
            warnings.simplefilter("always", append=True)
            warnings.showwarning = lambda message, category, *_: raised.update([(category.__name__, str(message))])
        try:
            cfg = _load_config(args)
            _write(args, _COMMANDS[args.command](args, cfg))
        except (ConfigError, ValueError) as exc:
            print(f"validation error: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        finally:
            if not args.quiet:
                for (name, message), times in raised.items():
                    log.warning("%s: %s%s", name, message, f" (raised {times} times)" if times > 1 else "")
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
