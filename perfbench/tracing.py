"""Span tracer that wraps the library's public functions from outside.

Nothing in the library is edited.  ``Tracer.install`` replaces each traced
function in every ``twrnoma`` namespace that holds it (the defining module
and each module that imported the name), and ``Tracer.uninstall`` puts the
originals back.  It is only installed in the traced run; the end-to-end
metrics are measured with the originals in place.

A span records its name, start, end, parent span, op id and thread.  Self
time is the span's duration minus the union of its children's intervals;
children may run on other threads (the Monte Carlo chunk workers), which
is why the union is taken rather than a sum.  Self times are accumulated as
spans close, so the hot leaf calls (hypoexp_pdf runs ~10^5 times per leakage
rate) need not be kept one by one: consecutive leaf spans of one name under
one parent are kept as a single record with a call count.
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import logging
import sys
import threading
import time

_now = time.perf_counter


class _Frame:
    __slots__ = ("name", "span_id", "parent", "start", "children",
                 "leaves", "pool_workers", "thread", "op_id")

    def __init__(self, name, span_id, parent, start, thread, op_id):
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.start = start
        self.children = []
        self.leaves = {}
        self.pool_workers = 0
        self.thread = thread
        self.op_id = op_id


def _union_length(intervals):
    if not intervals:
        return 0.0
    intervals.sort()
    total = 0.0
    cur_s, cur_e = intervals[0]
    for s, e in intervals[1:]:
        if s > cur_e:
            total += cur_e - cur_s
            cur_s, cur_e = s, e
        elif e > cur_e:
            cur_e = e
    return total + (cur_e - cur_s)


class _CountingHandler(logging.Handler):
    def __init__(self, tracer, key):
        super().__init__(logging.DEBUG)
        self._tracer = tracer
        self._key = key

    def emit(self, record):
        self._tracer.count(self._key)


class _QuadCounter:
    """Stands in for ``scipy.integrate`` inside ``twrnoma.ergodic``."""

    def __init__(self, tracer, module):
        self._tracer = tracer
        self._module = module

    def quad(self, *args, **kwargs):
        self._tracer.count("ergodic.quad_calls")
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.op_id = None
        self.records = []
        self.stats = collections.defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = collections.Counter()
        self.points = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._restore = []
        self._quadrature_error = ()

    # -- spans ------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def begin(self, name, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        frame = _Frame(name, next(self._ids), parent, _now(),
                       threading.get_ident(), self.op_id)
        stack.append(frame)
        return frame

    def end(self, frame):
        end = _now()
        self._stack().pop()
        duration = end - frame.start
        with self._lock:
            self_time = duration - _union_length(frame.children)
            entry = self.stats[frame.name]
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_time
            if frame.pool_workers:
                busy = sum(e - s for s, e in frame.children)
                self.counters["montecarlo.worker_idle_s"] += (
                    frame.pool_workers * duration - busy)
                self.counters["montecarlo.pooled_slots_s"] += (
                    frame.pool_workers * duration)
            parent = frame.parent
            if parent is not None:
                parent.children.append((frame.start, end))
            if parent is not None and not frame.children:
                leaf = parent.leaves.get(frame.name)
                if leaf is None:
                    parent.leaves[frame.name] = [1, duration, frame.start, end,
                                                 frame.thread]
                else:
                    leaf[0] += 1
                    leaf[1] += duration
                    leaf[3] = end
                return
            self.records.append((frame.span_id,
                                 parent.span_id if parent else None,
                                 frame.op_id, frame.thread, frame.name,
                                 frame.start, end, 1, duration))
            for name, (count, busy, start, last, thread) in frame.leaves.items():
                self.records.append((next(self._ids), frame.span_id,
                                     frame.op_id, thread, name, start, last,
                                     count, busy))

    def count(self, key, amount=1):
        with self._lock:
            self.counters[key] += amount

    def enclosing(self, frame, names):
        while frame is not None and frame.name not in names:
            frame = frame.parent
        return frame

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name, fn, after=None, before=None):
        quad_error = self._quadrature_error

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.begin(name)
            if before is not None:
                before(self, frame, args, kwargs)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if isinstance(exc, quad_error) and not getattr(exc, "_perfbench_seen", False):
                    exc._perfbench_seen = True
                    self.count("ergodic.quadrature_errors")
                raise
            finally:
                self.end(frame)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return traced

    def _replace(self, original, replacement):
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "twrnoma" or mod_name.startswith("twrnoma.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self):
        """Patch every traced name and hook the numerical-event sources."""
        import concurrent.futures
        import scipy.integrate

        import twrnoma.ergodic as ergodic

        self._quadrature_error = ergodic.QuadratureError
        for module_name, attr, span, after, before in _targets():
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._replace(original, self.wrap(span, original, after, before))

        self._replace(concurrent.futures.ThreadPoolExecutor,
                      _pool_class(self, concurrent.futures.ThreadPoolExecutor))
        setattr(ergodic, "integrate", _QuadCounter(self, scipy.integrate))
        self._restore.append((ergodic, "integrate", scipy.integrate))

        for logger_name, key in (("twrnoma.specfun", "specfun.rate_nudges"),
                                 ("twrnoma.ergodic", "ergodic.rate_nudges")):
            logger = logging.getLogger(logger_name)
            handler = _CountingHandler(self, key)
            self._restore.append((logger, handler, (logger.level, logger.propagate)))
            logger.addHandler(handler)
            logger.setLevel(logging.DEBUG)
            logger.propagate = False

    def uninstall(self):
        for target, attr, original in reversed(self._restore):
            if isinstance(target, logging.Logger):
                target.removeHandler(attr)
                target.setLevel(original[0])
                target.propagate = original[1]
            else:
                setattr(target, attr, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def write_spans(self, path, names):
        """One JSON line per span record; ``count`` > 1 marks coalesced leaves."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, thread, name, start, end, count, busy in self.records:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "op": names.get(op, op), "thread": thread,
                                     "name": name, "start": start, "end": end,
                                     "count": count, "busy": busy}) + "\n")

    def layer_self_times(self):
        out = collections.defaultdict(float)
        for name, (_calls, _busy, self_time) in self.stats.items():
            out[name.split(".", 1)[0]] += self_time
        return dict(out)

    def metrics(self, traced_wall, untraced_wall):
        """The per-layer metrics named in BENCHMARK.json, from this pass."""
        st, c = self.stats, self.counters

        def calls(name):
            return st[name][0] if name in st else 0

        def busy(name):
            return st[name][1] if name in st else 0.0

        def self_s(name):
            return st[name][2] if name in st else 0.0

        out = {}
        for stage in ("sample_channel_draw", "sinr_set"):
            out[f"model.{stage}.busy_s"] = (busy(f"model.{stage}"), "s")
            out[f"model.{stage}.samples"] = (c[f"model.{stage}.samples"], "count")
            out[f"model.{stage}.bytes_computed"] = (c[f"model.{stage}.bytes"], "bytes")
        for est in ("mc_outage", "mc_ergodic", "mc_oma_baseline"):
            out[f"montecarlo.{est}.calls"] = (calls(f"montecarlo.{est}"), "count")
            out[f"montecarlo.{est}.self_s"] = (self_s(f"montecarlo.{est}"), "s")
        out["montecarlo.chunk_generator.calls"] = (calls("montecarlo.chunk_generator"), "count")
        out["montecarlo.chunk_generator.busy_s"] = (busy("montecarlo.chunk_generator"), "s")
        out["montecarlo.worker_chunk.self_s"] = (self_s("montecarlo.worker_chunk"), "s")
        point_samples = sum(self.points.values())
        out["montecarlo.samples_per_point"] = (
            c["montecarlo.samples"] / point_samples if point_samples else 0.0, "ratio")
        out["montecarlo.samples_per_s"] = (
            c["montecarlo.samples"] / untraced_wall if untraced_wall else 0.0, "1/s")
        worker_busy = busy("montecarlo.worker_chunk")
        out["montecarlo.worker_busy_s"] = (worker_busy, "s")
        out["montecarlo.worker_idle_s"] = (c["montecarlo.worker_idle_s"], "s")
        slots = c["montecarlo.pooled_slots_s"]
        out["montecarlo.parallel_efficiency"] = (worker_busy / slots if slots else 0.0, "ratio")
        out["montecarlo.ci_wilson_fallbacks"] = (c["montecarlo.ci_wilson_fallbacks"], "count")
        for fn in ("expint_ei", "hypoexp_pdf"):
            out[f"specfun.{fn}.calls"] = (calls(f"specfun.{fn}"), "count")
            out[f"specfun.{fn}.busy_s"] = (busy(f"specfun.{fn}"), "s")
        out["specfun.expei_neg.calls.series"] = (c["specfun.expei_neg.series"], "count")
        out["specfun.expei_neg.calls.cfrac"] = (c["specfun.expei_neg.cfrac"], "count")
        out["specfun.expei_neg.busy_s"] = (busy("specfun.expei_neg"), "s")
        out["specfun.resolve_rates.calls"] = (calls("specfun.resolve_rates"), "count")
        out["specfun.rate_nudges"] = (c["specfun.rate_nudges"], "count")
        for fn in ("outage_probability", "outage_asymptotic"):
            out[f"analysis.{fn}.calls"] = (calls(f"analysis.{fn}"), "count")
            out[f"analysis.{fn}.self_s"] = (self_s(f"analysis.{fn}"), "s")
        out["analysis.infeasible_results"] = (c["analysis.infeasible_results"], "count")
        for fn in ("strong_closed", "weak_numeric", "strong_numeric",
                   "strong_rate_ccdf_leakage"):
            out[f"ergodic.{fn}.calls"] = (calls(f"ergodic.{fn}"), "count")
            out[f"ergodic.{fn}.self_s"] = (self_s(f"ergodic.{fn}"), "s")
        out["ergodic.strong_quadrature.self_s"] = (self_s("ergodic.strong_quadrature"), "s")
        out["ergodic.asymptotes.self_s"] = (self_s("ergodic.asymptotes"), "s")
        out["ergodic.quad_calls"] = (c["ergodic.quad_calls"], "count")
        out["ergodic.quadrature_errors"] = (c["ergodic.quadrature_errors"], "count")
        out["ergodic.rate_nudges"] = (c["ergodic.rate_nudges"], "count")
        out["metrics.calls"] = (calls("metrics"), "count")
        out["metrics.busy_s"] = (busy("metrics"), "s")
        out["sweep.run_sweep.self_s"] = (self_s("sweep.run_sweep"), "s")
        out["sweep.render_csv.busy_s"] = (busy("sweep.render_csv"), "s")
        out["sweep.emit_outputs.busy_s"] = (busy("sweep.emit_outputs"), "s")
        out["sweep.rows"] = (c["sweep.rows"], "count")
        out["sweep.csv_bytes"] = (c["sweep.csv_bytes"], "bytes")
        out["configio.parse_config.busy_s"] = (busy("configio.parse_config"), "s")
        out["cli.main.self_s"] = (self_s("cli.main"), "s")
        out["validate.validate.self_s"] = (self_s("validate.validate"), "s")
        out["validate.checks_failed"] = (c["validate.checks_failed"], "count")
        out["trace.wall_s"] = (traced_wall, "s")
        out["trace.overhead_share"] = (traced_wall / untraced_wall - 1.0, "ratio")
        return out


# -- hooks: counts taken from arguments and results -------------------------

def _draw_counts(tracer, args, kwargs, draw):
    fields = (draw.g1, draw.g2, draw.g3, draw.g4, draw.gI)
    tracer.count("model.sample_channel_draw.samples", int(getattr(draw.g1, "size", 1)))
    tracer.count("model.sample_channel_draw.bytes",
                 sum(int(getattr(f, "nbytes", 8)) for f in fields))


def _sinr_counts(tracer, args, kwargs, sinrs):
    draw = args[1] if len(args) > 1 else kwargs["draw"]
    read = sum(int(getattr(f, "nbytes", 8))
               for f in (draw.g1, draw.g2, draw.g3, draw.g4, draw.gI))
    written = sum(int(getattr(f, "nbytes", 8))
                  for f in (sinrs.relay_strong, sinrs.relay_weak,
                            sinrs.near_decodes_weak, sinrs.near_decodes_own,
                            sinrs.far_decodes_weak))
    tracer.count("model.sinr_set.samples", int(getattr(sinrs.relay_strong, "size", 1)))
    tracer.count("model.sinr_set.bytes", read + written)


def _estimator_points(signature):
    def before(tracer, frame, args, kwargs):
        bound = signature.bind(*args, **kwargs)
        n = int(bound.arguments["n"])
        point = bound.arguments.get("point_index", 0)
        owner = tracer.enclosing(frame, ("sweep.run_sweep", "validate.validate"))
        key = (owner.span_id if owner else frame.span_id, point)
        with tracer._lock:
            tracer.counters["montecarlo.samples"] += n
            tracer.points[key] = max(tracer.points.get(key, 0), n)
    return before


def _ci_counts(tracer, args, kwargs, result):
    successes, n = args[0], args[1]
    if successes < 10 or n - successes < 10:
        tracer.count("montecarlo.ci_wilson_fallbacks")


def _expei_regime(tracer, frame, args, kwargs):
    # expei_neg switches from the series to the continued fraction at s = 6
    tracer.count("specfun.expei_neg.series" if float(args[0]) <= 6.0
                 else "specfun.expei_neg.cfrac")


def _outage_counts(tracer, args, kwargs, result):
    if not result.feasible:
        tracer.count("analysis.infeasible_results")


def _rows(tracer, args, kwargs, table):
    tracer.count("sweep.rows", len(table))


def _csv_bytes(tracer, args, kwargs, text):
    tracer.count("sweep.csv_bytes", len(text.encode("utf-8")))


def _failed_checks(tracer, args, kwargs, report):
    tracer.count("validate.checks_failed", sum(1 for r in report.results if not r.passed))


def _targets():
    """(module, public name, span name, after-hook, before-hook) per traced name."""
    import twrnoma.montecarlo as mc

    est_sig = inspect.signature(mc.mc_outage)
    oma_sig = inspect.signature(mc.mc_oma_baseline)
    return [
        ("twrnoma.model", "sample_channel_draw", "model.sample_channel_draw", _draw_counts, None),
        ("twrnoma.model", "sinr_set", "model.sinr_set", _sinr_counts, None),
        ("twrnoma.montecarlo", "mc_outage", "montecarlo.mc_outage", None, _estimator_points(est_sig)),
        ("twrnoma.montecarlo", "mc_ergodic", "montecarlo.mc_ergodic", None, _estimator_points(est_sig)),
        ("twrnoma.montecarlo", "mc_oma_baseline", "montecarlo.mc_oma_baseline", None,
         _estimator_points(oma_sig)),
        ("twrnoma.montecarlo", "chunk_generator", "montecarlo.chunk_generator", None, None),
        ("twrnoma.montecarlo", "ci_bounds", "montecarlo.ci_bounds", _ci_counts, None),
        ("twrnoma.specfun", "expint_ei", "specfun.expint_ei", None, None),
        ("twrnoma.specfun", "expei_neg", "specfun.expei_neg", None, _expei_regime),
        ("twrnoma.specfun", "hypoexp_pdf", "specfun.hypoexp_pdf", None, None),
        ("twrnoma.specfun", "resolve_rates", "specfun.resolve_rates", None, None),
        ("twrnoma.analysis", "outage_probability", "analysis.outage_probability", _outage_counts, None),
        ("twrnoma.analysis", "outage_asymptotic", "analysis.outage_asymptotic", None, None),
        ("twrnoma.ergodic", "ergodic_rate_strong_closed", "ergodic.strong_closed", None, None),
        ("twrnoma.ergodic", "ergodic_rate_weak_numeric", "ergodic.weak_numeric", None, None),
        ("twrnoma.ergodic", "ergodic_rate_strong_numeric", "ergodic.strong_numeric", None, None),
        ("twrnoma.ergodic", "strong_rate_ccdf_leakage", "ergodic.strong_rate_ccdf_leakage", None, None),
        ("twrnoma.ergodic", "ergodic_rate_strong_quadrature", "ergodic.strong_quadrature", None, None),
        ("twrnoma.ergodic", "ergodic_rate_strong_asymptotic", "ergodic.asymptotes", None, None),
        ("twrnoma.ergodic", "ergodic_rate_weak_highsnr", "ergodic.asymptotes", None, None),
        ("twrnoma.metrics", "throughput_delay_limited", "metrics", None, None),
        ("twrnoma.metrics", "throughput_delay_tolerant", "metrics", None, None),
        ("twrnoma.metrics", "energy_efficiency", "metrics", None, None),
        ("twrnoma.sweep", "run_sweep", "sweep.run_sweep", _rows, None),
        ("twrnoma.sweep", "render_csv", "sweep.render_csv", _csv_bytes, None),
        ("twrnoma.sweep", "emit_outputs", "sweep.emit_outputs", None, None),
        ("twrnoma.configio", "parse_config", "configio.parse_config", None, None),
        ("twrnoma.cli", "main", "cli.main", None, None),
        ("twrnoma.validate", "validate", "validate.validate", _failed_checks, None),
    ]


def _pool_class(tracer, base):
    """A ThreadPoolExecutor whose chunk calls open a span on the worker thread.

    The span's parent is the estimator call that submitted the work, so the
    estimator's self time and the workers' idle time are measured against
    the right interval.
    """

    class TracedPool(base):
        def map(self, fn, *iterables, **kwargs):
            parent = tracer.current()
            if parent is not None:
                parent.pool_workers = self._max_workers

            def chunk(*args):
                frame = tracer.begin("montecarlo.worker_chunk", parent=parent)
                try:
                    return fn(*args)
                finally:
                    tracer.end(frame)

            return super().map(chunk, *iterables, **kwargs)

    return TracedPool
