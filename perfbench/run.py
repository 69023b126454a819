#!/usr/bin/env python3
"""twrnoma benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload presets --seed 1 --seconds 30 --trace 0

Run from the repository root.  With ``--trace 0`` the last line of stdout
holds the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of one traced pass, measured after an untraced phase of the same
length.  Workloads, metrics and the traced run are described in
``perfbench/README.md``.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import os  # noqa: E402

# numpy's BLAS pools would otherwise start threads of their own; the only
# threads on the cores should be the sweep's --workers.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("presets", "leakage_rate", "validate_serial")
SETUP_SAMPLES = 5
_RAISED = object()
# Host speed.  Co-tenants on a shared host slow every op by up to ~3x, in
# phases that last from seconds to minutes, so raw times from two runs minutes
# apart are not comparable.  Each op is therefore also timed against a fixed
# calibration kernel run just before and just after it, and reported in
# reference seconds: seconds on a host where the kernel takes
# CALIBRATION_REFERENCE_S, about its time on the 2-vCPU x86_64 VM this
# benchmark was tuned on, in a quiet phase.
CALIBRATION_REFERENCE_S = 2.0e-3
CALIBRATION_REPEATS = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="time set-up only and print it (used internally)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


_KERNEL_ARRAYS = []


def _calibration_kernel():
    """Fixed interpreter and numpy work, independent of the library.

    The numpy half works in place on preallocated arrays of the presets'
    sample count, so it measures arithmetic and cache speed, not the cost
    of fresh pages, which varies from one process to the next.
    """
    import numpy as np

    total = 0.0
    for i in range(20000):
        total += i * 0.5
    if not _KERNEL_ARRAYS:
        gen = np.random.Generator(np.random.Philox(20190119))
        _KERNEL_ARRAYS.extend(gen.standard_exponential(16384) + 0.01 for _ in range(8))
    a, b, c, d, e, f, g, h = _KERNEL_ARRAYS
    for _ in range(12):
        np.multiply(a, b, out=e)
        np.divide(e, c, out=f)
        np.add(f, d, out=g)
        np.log1p(g, out=h)
        total += float(np.count_nonzero(h > 0.5))
    return total


def _host_seconds():
    """The calibration kernel's time now: the median of a few runs."""
    samples = []
    for _ in range(CALIBRATION_REPEATS):
        t = time.perf_counter()
        _calibration_kernel()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def _setup(name, seed):
    """Import, config parse, pass expansion and one warm-up op.

    Returns the workload, and the set-up time in seconds and in reference
    seconds.
    """
    import workloads

    workload = workloads.make(name, seed, OUT)
    try:
        workload.build()
        workload.run_op(workload.warmup_op(), "warmup")
    except BaseException:
        workloads.cleanup(workload)
        raise
    seconds = time.perf_counter() - _T0
    return workload, seconds, seconds * CALIBRATION_REFERENCE_S / _host_seconds()


def _probe_setup(name, seed, count):
    """Set-up times of ``count`` fresh interpreters, one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--probe-setup"],
            cwd=ROOT, capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["setup_ref_s"]))
    return samples


class Measurement:
    def __init__(self):
        self.by_kind = {}            # op kind -> seconds of each call
        self.ref_by_kind = {}        # op kind -> reference seconds of each call
        self.pass_walls = []
        self.executed = []           # (op, weight, raised) per call
        self.kept = {}               # pass tag -> [(op, output)]
        self.elapsed = 0.0
        self.op_names = {}           # op sequence id -> label, for spans
        self.host_seconds = []       # kernel time before each call and after the last


def _measure(workload, seconds, tracer=None, passes=None, tag=None):
    """Run whole passes until ``seconds`` have elapsed (or ``passes`` ran)."""
    m = Measurement()
    start = time.perf_counter()
    deadline = start + seconds
    k = 0
    seq = 0
    host = [_host_seconds()]
    calls = []                       # (kind, seconds) per call
    while True:
        pass_tag = k if tag is None else tag
        outputs = []
        pass_time = 0.0              # the ops' own time, without the kernel's
        for op in workload.ops:
            if tracer is not None:
                tracer.op_id = seq
                m.op_names[seq] = workload.label(op)
            seq += 1
            t = time.perf_counter()
            try:
                out = workload.run_op(op, pass_tag)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = _RAISED
            dt = time.perf_counter() - t
            pass_time += dt
            host.append(_host_seconds())
            calls.append((workload.kind(op), dt))
            m.executed.append((op, workload.weight(op), out is _RAISED))
            outputs.append((op, out))
        m.pass_walls.append(pass_time)
        m.kept[pass_tag if k == 0 else "last"] = outputs
        k += 1
        if passes is not None:
            if k >= passes:
                break
        elif k >= workload.min_passes and time.perf_counter() >= deadline:
            break
    m.elapsed = time.perf_counter() - start
    for i, (kind, dt) in enumerate(calls):
        m.by_kind.setdefault(kind, []).append(dt)
        speed = CALIBRATION_REFERENCE_S / ((host[i] + host[i + 1]) / 2.0)
        m.ref_by_kind.setdefault(kind, []).append(dt * speed)
    m.host_seconds = host
    return m


def _percentile(values, p):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _source_hash():
    """sha256 over the library and benchmark sources, which fix the outputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "twrnoma").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _environment(args, workload):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "source_sha256": _source_hash(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": workload.op_label,
        "params": workload.params(),
    }


def _completed(outputs):
    return [(op, out) for op, out in outputs if out is not _RAISED]


class Gates:
    """Correctness and determinism verdicts, evaluated after the timed loop."""

    def __init__(self):
        self.bad = set()             # ops that failed a gate, in every pass
        self.messages = []

    def fail(self, op, message):
        self.bad.add(op)
        if message is not None:
            self.messages.append(message)

    def check_outputs(self, workload, m):
        first = dict(m.kept[0])
        for pass_tag, outputs in m.kept.items():
            for op, out in outputs:
                if out is _RAISED:
                    continue
                if pass_tag != 0:
                    if out != first[op]:
                        self.fail(op, f"{workload.label(op)}: output of the "
                                      "last pass differs from pass 0")
                    continue
                for message in workload.check(op, out):
                    self.fail(op, message)
        for op, message in workload.final_checks(_completed(m.kept[0])):
            self.fail(op, message)

    def compare_traced(self, workload, untraced, traced):
        reference = dict(untraced.kept[0])
        for op, out in traced.kept["traced"]:
            if out is not _RAISED and out != reference.get(op, out):
                self.fail(op, f"{workload.label(op)}: traced output differs from untraced")

    def check_digests(self, workload, m, seed):
        """Digests must repeat across runs of the same source and seed."""
        import workloads

        digests = workload.digests(_completed(m.kept[0]))
        store_path = OUT / "digests.json"
        store = workloads.load_digests(store_path)
        source = _source_hash()
        for name, (digest, ops) in digests.items():
            key = f"{source}/{workload.name}/seed{seed}/{name}"
            previous = store.get(key)
            if previous is not None and previous != digest:
                self.messages.append(f"{name}: digest {digest} differs from "
                                     f"an earlier run's {previous}")
                for op in ops:
                    self.fail(op, None)
            store[key] = digest
        workloads.save_digests(store_path, store)
        return {name: digest for name, (digest, _ops) in digests.items()}

    def failed_count(self, m):
        return sum(weight for op, weight, raised in m.executed
                   if raised or op in self.bad)


def _pass_wall(workload, by_kind):
    """One pass's time with every op at the median time of its kind."""
    return sum(statistics.median(by_kind[workload.kind(op)]) for op in workload.ops)


def _end_to_end(workload, m, setups, peak_rss_mb):
    """End-to-end metrics, in reference seconds, from each op kind's median.

    Each kind repeats ~15 times or more in a 30-second run; ``setups`` holds
    (seconds, reference seconds) per set-up.
    """
    costs = []                       # reference seconds per counted op, one pass
    for op in workload.ops:
        weight = workload.weight(op)
        costs += [statistics.median(m.ref_by_kind[workload.kind(op)]) / weight] * weight
    wall = _pass_wall(workload, m.ref_by_kind)
    tail_p = workload.tail_percentile
    tail = _percentile(costs, tail_p)
    calls = [t for times in m.by_kind.values() for t in times]
    info = {"tail_percentile": tail_p, "ops_per_pass": len(costs),
            "ops_beyond_tail": sum(1 for c in costs if c > tail),
            "calls": len(calls), "min_repeats": min(len(t) for t in m.by_kind.values()),
            "passes": len(m.pass_walls), "measured_s": m.elapsed,
            "setup_samples_s": [raw for raw, _ref in setups],
            "setup_samples_ref_s": [ref for _raw, ref in setups],
            "host_seconds_median": statistics.median(m.host_seconds),
            "raw_pass_wall_s": _pass_wall(workload, m.by_kind),
            "raw_call_median_s": statistics.median(calls)}
    metrics = {
        "setup_s": (statistics.median(ref for _raw, ref in setups), "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (len(costs) / wall, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(costs), "ms"),
        "op_tail_ms": (1000.0 * tail, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, info


def _run(args):
    import workloads
    from tracing import Tracer

    workload, *setup_in_process = _setup(args.workload, args.seed)
    try:
        env = _environment(args, workload)
        print("env " + json.dumps(env, sort_keys=True))
        untraced = _measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gates = Gates()
        record = {"env": env}
        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                tracer.op_id = "setup"
                workload.build()
                traced = _measure(workload, 0.0, tracer=tracer, passes=1, tag="traced")
            finally:
                tracer.uninstall()
            gates.compare_traced(workload, untraced, traced)
            metrics = tracer.metrics(traced.pass_walls[0], _pass_wall(workload, untraced.by_kind))
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.jsonl"
            tracer.write_spans(spans_path, {**traced.op_names, "setup": "setup"})
            layers = {name: round(v, 6) for name, v in
                      sorted(tracer.layer_self_times().items())}
            print("self time by layer (s; chunk workers run in parallel): "
                  + json.dumps(layers))
            record.update(layer_self_s=layers, spans=str(spans_path.relative_to(ROOT)))
            runs = (untraced, traced)
        else:
            setups = [tuple(setup_in_process)] + _probe_setup(
                args.workload, args.seed, SETUP_SAMPLES - 1)
            metrics, info = _end_to_end(workload, untraced, setups, peak_rss_mb)
            record.update(info)
            runs = (untraced,)
        gates.check_outputs(workload, untraced)
        digests = gates.check_digests(workload, untraced, args.seed)
        for name, digest in sorted(digests.items()):
            print(f"digest {name} {digest}")
        attempted = sum(w for m in runs for _op, w, _raised in m.executed)
        failed = sum(gates.failed_count(m) for m in runs)
        for message in gates.messages[:20]:
            print(f"gate FAIL {message}")
        print(f"gates: {failed} of {attempted} ops failed; "
              f"{len(gates.messages)} failure message(s)")
        record.update(
            metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            digests=digests, failures=gates.messages[:200],
            op_seconds={kind: statistics.median(v)
                        for kind, v in sorted(untraced.by_kind.items())},
            op_ref_seconds={kind: statistics.median(v)
                            for kind, v in sorted(untraced.ref_by_kind.items())},
            op_times=untraced.by_kind, host_seconds=untraced.host_seconds)
        OUT.mkdir(exist_ok=True)
        (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    finally:
        workloads.cleanup(workload)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "twrnoma" / "__init__.py").is_file():
        print(f"error: no twrnoma sources under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.probe_setup:
        import workloads

        workload, seconds, ref_seconds = _setup(args.workload, args.seed)
        workloads.cleanup(workload)
        print(json.dumps({"setup_s": seconds, "setup_ref_s": ref_seconds}))
        return 0
    result = _run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
