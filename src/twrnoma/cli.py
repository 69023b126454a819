"""Command line front end: parameter sweeps and the self-check battery.

Exit codes: 0 on success, 1 for configuration or usage problems, 2 when
the validation battery reports a failing check.  SNR is taken in dB on
the command line and converted once, here, to the linear scale the
library works in.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .configio import DEFAULT_CONFIG_TEXT, PRESETS, Preset, load_config
from .metrics import METRICS, PER_SIGNAL
from .model import SIC_MODES, ConfigError, SystemConfig
from .sweep import OutputError, emit_outputs, emit_plot_script, run_sweep
from .validate import DEFAULT_VALIDATE_SEED, PROFILES, validate


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_signals(text):
    out = []
    for part in text.split(","):
        token = part.strip().lower().lstrip("x")
        if not token:
            continue
        try:
            out.append(int(token))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"cannot parse signal name {part.strip()!r}; expected x1..x4") from None
    if not out:
        raise argparse.ArgumentTypeError("signal list is empty")
    return tuple(out)


def _parse_snr(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expects start:stop:step in dB, got {text!r}")
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"values must be numeric, got {text!r}") from None


def _parse_mode(text):
    """One SIC mode, or "both"; the spec checks the name."""
    return SIC_MODES if text == "both" else (text,)


def _build_parser():
    parser = _Parser(prog="twrnoma",
                     description="Two-way relay NOMA link analysis")
    parser.add_argument("--print-default-config", action="store_true",
                        help="print the annotated default config and exit")
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser("sweep", help="run an SNR sweep", prog="twrnoma sweep")
    sweep.add_argument("--config", metavar="PATH",
                       help="flat key=value config file")
    sweep.add_argument("--preset", choices=sorted(PRESETS),
                       help="bundled sweep configuration")
    sweep.add_argument("--metric", choices=METRICS)
    sweep.add_argument("--signals", type=_parse_signals, metavar="LIST",
                       help="comma separated, e.g. x1,x2")
    sweep.add_argument("--mode", dest="modes", type=_parse_mode,
                       metavar="{ipsic,psic,both}")
    sweep.add_argument("--snr", type=_parse_snr, metavar="A:B:STEP",
                       help="SNR grid in dB, e.g. 0:40:5 or -10:0:5")
    sweep.add_argument("--iterations", dest="mc_iterations", type=int,
                       metavar="N")
    sweep.add_argument("--seed", dest="master_seed", type=int, metavar="N")
    sweep.add_argument("--with-oma", action="store_true", default=None)
    sweep.add_argument("--with-asymptotic", action="store_true", default=None)
    sweep.add_argument("--out", metavar="PATH", help="output CSV path")
    sweep.add_argument("--emit-plot", action="store_true",
                       help="also write a standalone plot script")
    sweep.add_argument("--workers", type=int, default=1, metavar="N")

    check = sub.add_parser("validate", help="run the self-check battery",
                           prog="twrnoma validate")
    check.add_argument("--config", metavar="PATH")
    check.add_argument("--profile", choices=sorted(PROFILES), default="default")
    check.add_argument("--iterations", type=int, default=200_000, metavar="N")
    check.add_argument("--seed", type=int, default=DEFAULT_VALIDATE_SEED,
                       metavar="N")
    check.add_argument("--workers", type=int, default=1, metavar="N")
    return parser


def _load(args):
    if args.config:
        return load_config(args.config)
    return SystemConfig()


def _sweep_jobs(args, base_config):
    """Expand a preset, or a bare metric, into (spec, config, out path) jobs.

    A sweep flag's dest is the spec field it sets; each flag that was given
    replaces its field, and every variant of the preset then makes one job.
    A flag that no job would read is refused.
    """
    if args.preset:
        base = PRESETS[args.preset]
    elif args.metric:
        base = Preset(metric=args.metric)
    else:
        raise ConfigError("either --preset or --metric is required")
    if args.metric and any(variant.metric for variant in base.variants):
        raise ConfigError(f"--metric cannot replace the metric that each variant of "
                          f"preset {args.preset} names")
    spec = dataclasses.replace(base, **{
        f.name: getattr(args, f.name) for f in dataclasses.fields(base)
        if getattr(args, f.name, None) is not None})
    root, ext = os.path.splitext(args.out or args.preset or "sweep")
    ext = ext or ".csv"
    jobs = []
    for variant in spec.variants:
        metric = variant.metric or spec.metric
        if args.signals and metric not in PER_SIGNAL:
            raise ConfigError(f"--signals applies only to {' and '.join(PER_SIGNAL)}; "
                              f"{metric} always sums x1..x4")
        path = f"{root}_{variant.suffix}{ext}" if variant.suffix else root + ext
        jobs.append((dataclasses.replace(spec, metric=metric),
                     dataclasses.replace(base_config, **variant.overrides), path))
    return jobs


def _cmd_sweep(args):
    base_config = _load(args)
    for spec, cfg, path in _sweep_jobs(args, base_config):
        table = run_sweep(spec, cfg, workers=args.workers)
        emit_outputs(table, path)
        print(f"wrote {path} ({len(table)} rows)")
        if args.emit_plot:
            script = emit_plot_script(path, f"{os.path.splitext(path)[0]}_plot.py")
            print(f"wrote {script}")
    return 0


def _cmd_validate(args):
    config = _load(args)
    report = validate(config, profile=args.profile,
                      iterations=args.iterations, seed=args.seed,
                      workers=args.workers)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 2


def _attach_grids(argv):
    """Join ``--snr`` (or its abbreviation ``--sn``) to a grid that starts
    with a minus sign.

    argparse takes a separate ``-10:0:5`` for an option, so the flag would
    find no value; ``--snr=-10:0:5`` is read as intended.
    """
    out = []
    for token in argv:
        if out and out[-1] in ("--sn", "--snr") and len(token) > 1 \
                and token[0] == "-" and token[1] in "0123456789.":
            out[-1] = f"--snr={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_grids(sys.argv[1:] if argv is None else argv))
        if getattr(args, "workers", 1) < 1:
            raise _UsageError(f"argument --workers: must be at least 1, got {args.workers}")
        if args.print_default_config:
            print(DEFAULT_CONFIG_TEXT, end="")
            return 0
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "validate":
            return _cmd_validate(args)
        parser.print_help()
        return 1
    except (_UsageError, ConfigError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
