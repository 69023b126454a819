"""The three benchmark workloads.

Each workload builds its inputs from the run's seed, lists the ops of one
pass, runs one op through the library's public functions, and checks the
outputs against an independent route after the timed loop.  A pass is a
fixed multiset of ops, so every whole pass does the same work and the
timing medians do not depend on where the clock ran out.

Every library name is looked up on its module at call time (for example
``ergodic.ergodic_rate_strong_numeric``), so the traced run's wrappers see it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import math
import os
import random
import shutil
import tempfile
from pathlib import Path

import twrnoma.cli as cli
import twrnoma.configio as configio
import twrnoma.ergodic as ergodic
import twrnoma.model as model
import twrnoma.montecarlo as montecarlo

import oracles

# the package re-exports the function validate() over its module's name
validate = importlib.import_module("twrnoma.validate")

# MC columns of a preset CSV must lie within this many 95% half-widths of
# the analytic column.  Noise alone keeps every row within ~1.5; the closed
# form's independence approximation adds a bias that at 10% leakage
# (fig3_varpi_0.1, x1, 5 dB) averages 2.6 half-widths at 262144 iterations
# (3.5 at worst over seeds 1-8) and grows with sqrt(iterations).  At the
# timed size the worst row over seeds 1-10 sat at 2.83: a zero-count OMA row
# at 40 dB, whose Wilson interval is one-sided.
PRESET_BAND_HALF_WIDTHS = 4.5
# Monte Carlo size of the timed preset sweeps.  It is below one 2^17-sample
# chunk, so each estimator is one chunk and a pass takes ~1.5 s: a run
# repeats every preset ~17 times, which a steady median needs.  With one
# chunk a second worker has nothing to take, and the pool's hand-off to its
# thread on every estimator call timed the host's vCPU scheduling instead:
# under co-tenant load, four runs at --workers 2 spread twice as wide as at
# --workers 1 and ran 15-35% slower.
PRESET_ITERATIONS = 16384
PRESET_WORKERS = 1
# the untimed worker-count check runs at two chunks per estimator, so that
# both workers of --workers 2 take one
FULL_ITERATIONS = 262144
PARALLEL_WORKERS = 2
VALIDATE_ITERATIONS = 200_000
LEAKAGE_RATE_RTOL = 1e-7


def _config_text(fields):
    """Config-file text with the given keys overriding the bundled default."""
    lines = [line for line in configio.DEFAULT_CONFIG_TEXT.splitlines()
             if line.split("=", 1)[0].strip() not in fields]
    lines += [f"{key} = {value!r}" for key, value in fields.items()]  # floats only
    return "\n".join(lines) + "\n"


class Workload:
    name = ""
    op_label = ""
    #: percentile of op cost reported as op_tail_ms
    tail_percentile = 90.0
    #: whole passes every run makes, however long they take
    min_passes = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def build(self):
        """Parse configs and set ``self.ops``, the ops of one pass (set-up)."""
        raise NotImplementedError

    def warmup_op(self):
        return self.ops[0]

    def weight(self, op):
        """How many counted ops one call of run_op performs."""
        return 1

    def label(self, op):
        return str(op)

    def kind(self, op):
        """Ops of one kind do identical work; their median time is the op's cost."""
        return self.label(op)

    def run_op(self, op, pass_index):
        raise NotImplementedError

    def check(self, op, output):
        """Failure messages for one op's output; empty when it passes."""
        return []

    def final_checks(self, first_pass):
        """Extra untimed gates: list of (op, message) failures."""
        return []

    def digests(self, first_pass):
        """name -> (digest, ops it covers) for outputs that must repeat
        across runs of the same source and seed."""
        h = hashlib.sha256()
        for op, out in sorted(first_pass, key=lambda item: self.label(item[0])):
            h.update(f"{self.label(op)}={out!r}\n".encode("utf-8"))
        return {"pass0": (h.hexdigest(), [op for op, _out in first_pass])}

    def params(self):
        return {}


class Presets(Workload):
    """Every bundled preset through ``twrnoma.cli.main``; one op is one CSV."""

    name = "presets"
    op_label = "one preset CSV"
    min_passes = 2

    def build(self):
        self.config_path = self.workdir / "base.cfg"
        self.config_path.write_text(_config_text({}), encoding="utf-8")
        self.base = configio.parse_config(self.config_path.read_text(encoding="utf-8"))
        self.ops = sorted(configio.PRESETS)
        random.Random(self.seed).shuffle(self.ops)

    def warmup_op(self):
        return "fig6"

    def weight(self, op):
        return len(configio.PRESETS[op].variants)

    def _argv(self, preset, out_dir, workers=PRESET_WORKERS, iterations=PRESET_ITERATIONS):
        return ["sweep", "--preset", preset, "--config", str(self.config_path),
                "--iterations", str(iterations), "--workers", str(workers),
                "--seed", str(self.seed), "--out", str(out_dir / f"{preset}.csv")]

    def run_op(self, op, pass_index):
        out_dir = self.workdir / f"pass{pass_index}"
        out_dir.mkdir(exist_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(self._argv(op, out_dir))
        if code != 0:
            raise RuntimeError(f"twrnoma sweep --preset {op} exited {code}")
        return {path.name: path.read_bytes()
                for path in sorted(out_dir.glob(f"{op}*.csv"))}

    def check(self, op, output):
        preset = configio.PRESETS[op]
        failures = []
        expected_files = {(f"{op}_{v.suffix}.csv" if v.suffix else f"{op}.csv"): v
                          for v in preset.variants}
        if set(output) != set(expected_files):
            return [f"{op}: wrote {sorted(output)}, expected {sorted(expected_files)}"]
        for fname, variant in expected_files.items():
            config = dataclasses.replace(self.base, **variant.overrides)
            failures += _check_preset_csv(fname, output[fname], preset,
                                          variant.metric or preset.metric, config)
        return failures

    def final_checks(self, first_pass):
        # at full size, worker count must not change a single byte, and the
        # CSV passes the same gates as the timed ones
        op = "fig2"
        csvs = {}
        for workers in (1, PARALLEL_WORKERS):
            check_dir = self.workdir / f"full-workers{workers}"
            check_dir.mkdir(exist_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(self._argv(op, check_dir, workers, FULL_ITERATIONS))
            if code != 0:
                return [(op, f"fig2 at {FULL_ITERATIONS} iterations, "
                             f"--workers {workers} exited {code}")]
            csvs[workers] = {p.name: p.read_bytes()
                             for p in sorted(check_dir.glob(f"{op}*.csv"))}
        if csvs[1] != csvs[PARALLEL_WORKERS]:
            return [(op, f"fig2 CSV at {FULL_ITERATIONS} iterations differs between "
                         f"--workers 1 and --workers {PARALLEL_WORKERS}")]
        return [(op, message) for message in self.check(op, csvs[1])]

    def digests(self, first_pass):
        return {fname: (mc_digest(data), [op])
                for op, csvs in first_pass for fname, data in csvs.items()}

    def params(self):
        return {"workers": PRESET_WORKERS, "iterations": PRESET_ITERATIONS,
                "full_size_check_iterations": FULL_ITERATIONS,
                "full_size_check_workers": [1, PARALLEL_WORKERS], "mc_seed": self.seed,
                "presets": self.ops, "band_half_widths": PRESET_BAND_HALF_WIDTHS}


def mc_digest(csv_bytes):
    """sha256 over the three Monte Carlo columns of a sweep CSV."""
    h = hashlib.sha256()
    for line in csv_bytes.decode("utf-8").splitlines()[1:]:
        cells = line.split(",")
        h.update(",".join(cells[6:9]).encode("utf-8") + b"\n")
    return h.hexdigest()


def _expected_rows(preset, metric):
    start, stop, step = preset.snr
    points = int(math.floor((stop - start) / step + 1e-9)) + 1
    if metric in ("outage", "ergodic_rate"):
        per_point = len(preset.signals) * len(preset.modes)
        if preset.with_oma:
            per_point += 1 + len(preset.signals)
        return points * per_point
    return points * len(preset.modes)


def _check_preset_csv(fname, data, preset, metric, config):
    lines = data.decode("utf-8").splitlines()
    failures = []
    rows = lines[1:]
    want = _expected_rows(preset, metric)
    if len(rows) != want:
        failures.append(f"{fname}: {len(rows)} rows, expected {want}")
    one_sided = metric in ("ergodic_rate", "throughput_dt", "ee_dt")
    for line in rows:
        cells = line.split(",")
        snr_db, signal, mode = float(cells[0]), cells[1], cells[3]
        mean, lo, hi = (float(cells[6]), float(cells[7]), float(cells[8]))
        if not lo <= mean <= hi:
            failures.append(f"{fname} {line}: CI does not bracket the mean")
            continue
        if mode == "oma":
            target = "system" if signal == "oma:system" else int(signal[len("oma:x"):])
            ref = montecarlo.oma_outage_exact(
                config.with_rho(10.0 ** (snr_db / 10.0)), target)
            one = False
        else:
            ref = float(cells[4])
            one = one_sided
        band = PRESET_BAND_HALF_WIDTHS * (hi - lo) / 2.0
        # rate-style analytic columns are the leakage-free upper bound
        gap = mean - ref if one else abs(mean - ref)
        if not gap <= band:
            failures.append(f"{fname} {line}: MC {mean!r} vs {ref!r} "
                            f"outside {PRESET_BAND_HALF_WIDTHS} half-widths")
    return failures


class LeakageRate(Workload):
    """``ergodic_rate_strong_numeric`` with both leakage paths on."""

    name = "leakage_rate"
    op_label = "one strong-user leakage rate"
    # two points, so each repeats often enough for a steady median
    grid_db = (10.0, 25.0)

    def build(self):
        rng = random.Random(self.seed)
        self.config = configio.parse_config(_config_text({}))
        # The grid is fixed and the seed only orders it: the adaptive
        # quadrature's cost jumps with the inputs (0.40 s at 10.02 dB,
        # 0.65 s at 9.76 dB), so jittered points would time different work.
        self.ops = [(db, s) for db in self.grid_db for s in (1, 3)]
        rng.shuffle(self.ops)

    def warmup_op(self):
        return min(self.ops)

    def label(self, op):
        return f"x{op[1]}@{op[0]:g}dB"

    def kind(self, op):
        # x1 and x3 are mirror images in the symmetric default config: at one
        # SNR point they do identical work, so their times pool
        return f"{op[0]:g}dB"

    def _config(self, op):
        return self.config.with_rho(10.0 ** (op[0] / 10.0))

    def run_op(self, op, pass_index):
        return ergodic.ergodic_rate_strong_numeric(
            self._config(op), model.SignalIndex.for_signal(op[1]))

    def check(self, op, output):
        ref = oracles.strong_rate_leakage(self._config(op), op[1])
        if abs(output - ref) <= LEAKAGE_RATE_RTOL * abs(ref):
            return []
        return [f"{self.label(op)}: nested quadrature {output!r} vs "
                f"transform product {ref!r}"]

    def params(self):
        return {"ops": [self.label(op) for op in self.ops]}


class ValidateSerial(Workload):
    """The ``twrnoma validate`` battery, default profile, one worker."""

    name = "validate_serial"
    op_label = "one validate battery"
    batteries = 3

    def build(self):
        self.config = configio.parse_config(_config_text({}))
        rng = random.Random(self.seed)
        self.ops = [rng.randrange(1, 2 ** 31) for _ in range(self.batteries)]
        self.warmup_seed = rng.randrange(1, 2 ** 31)

    def warmup_op(self):
        return self.warmup_seed

    def run_op(self, op, pass_index):
        report = validate.validate(self.config, profile="default",
                                   iterations=VALIDATE_ITERATIONS, seed=op, workers=1)
        return tuple((r.name, r.passed, repr(r.observed)) for r in report.results)

    def check(self, op, output):
        return [f"battery seed {op}: {name} failed (observed {obs})"
                for name, passed, obs in output if not passed]

    def params(self):
        return {"workers": 1, "iterations": VALIDATE_ITERATIONS, "profile": "default",
                "battery_seeds": self.ops}


WORKLOADS = {cls.name: cls for cls in (Presets, LeakageRate, ValidateSerial)}


def make(name, seed, out_root):
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_root)
    return WORKLOADS[name](seed, workdir)


def cleanup(workload):
    shutil.rmtree(workload.workdir, ignore_errors=True)


def load_digests(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def save_digests(path, digests):
    tmp = Path(f"{path}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
