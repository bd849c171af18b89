"""Per-layer tracing from outside the package.

The traced run replaces the functions each layer exports, at the module
attribute its callers look them up through, with wrappers that record one
span per call: name, start, end, parent span and the number of items (Monte
Carlo replicates or samples) the call handled.  Nothing inside ``adagof`` is
edited; ``uninstall`` puts every original back.  Only serial work is
traced: spans recorded in pool worker processes would stay there.
"""

from __future__ import annotations

import dataclasses
import functools
import statistics
import time

from adagof import adaptive_test, alternatives, baselines, calibration, estimators, harness, null_models
from adagof.baselines import BaselineConfig, BaselineKind
from adagof.harness import TestColumn, TestKind


def _one(args, kwargs, out) -> int:
    return 1


def _rows(args, kwargs, out) -> int:
    return len(args[0])


def _reps(args, kwargs, out) -> int:
    return len(out)


class Tracer:
    """Spans kept in memory, plus the counts no span carries: accepted and
    proposed draws of the alternative samplers."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, items]
        self._stack: list[int] = []
        self.accepted = 0
        self.proposed = 0
        self._gamma: list[list] = []  # [shape, uniforms drawn] per active gamma_sample call
        self._patches = self._wiring()
        self._saved: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, items=_one):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, 0]
            spans.append(record)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter_ns()
                stack.pop()
            record[4] = items(args, kwargs, out)
            return out

        return traced

    def _alternative_from_id(self, from_id):
        @functools.wraps(from_id)
        def traced(alt_id):
            spec = from_id(alt_id)
            return dataclasses.replace(spec, sampler=self.span("alternatives.sample", spec.sampler))

        return traced

    def _counted_rejection(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            draws, proposals = fn(*args, **kwargs)
            self.accepted += len(draws)
            self.proposed += proposals
            return draws, proposals

        return counted

    def _counted_gamma(self, fn):
        # Marsaglia-Tsang draws two uniforms per proposal; a shape below one
        # draws one boost uniform per output and recurses with shape + 1,
        # where the proposals are counted.
        @functools.wraps(fn)
        def counted(stream, shape, n):
            frame = [shape, 0]
            self._gamma.append(frame)
            try:
                out = fn(stream, shape, n)
            finally:
                self._gamma.pop()
            if shape >= 1.0:
                self.accepted += len(out)
                self.proposed += frame[1] // 2
            return out

        return counted

    def _counted_unit(self, fn):
        @functools.wraps(fn)
        def counted(stream, n):
            if self._gamma and self._gamma[-1][0] >= 1.0:
                self._gamma[-1][1] += n
            return fn(stream, n)

        return counted

    def _wiring(self) -> list[tuple]:
        """(owner, attribute, replacement) for every import site a layer is
        reached through."""
        s = self.span
        derive = s("streams.derive", calibration.derive_stream)
        simple = s("estimators.simple_batch", calibration.simple_stats_batch, _rows)
        composite = s("estimators.composite_batch", calibration.composite_scale_stats_batch, _rows)
        calibrate = s("calibration.calibrate", calibration.calibrate)
        calibrate_baseline = s("baselines.calibrate", baselines.calibrate_baseline)
        wiring = [
            (calibration, "derive_stream", derive),
            (harness, "derive_stream", derive),
            (baselines, "derive_stream", derive),
            (calibration, "simple_stats_batch", simple),
            (harness, "simple_stats_batch", simple),
            (calibration, "composite_scale_stats_batch", composite),
            (harness, "composite_scale_stats_batch", composite),
            (calibration, "calibrate", calibrate),
            (harness, "calibrate", calibrate),
            (calibration, "simulate_null_stats", s("calibration.simulate", calibration.simulate_null_stats, _reps)),
            (calibration, "threshold_matrix", s("calibration.threshold_matrix", calibration.threshold_matrix)),
            (calibration, "level_curve_from_stats", s("calibration.level_curve", calibration.level_curve_from_stats)),
            (harness, "rejection_counts", s("harness.rejection_counts", harness.rejection_counts)),
            (harness, "from_id", self._alternative_from_id(harness.from_id)),
            (alternatives, "_rejection_unit_counted", self._counted_rejection(alternatives._rejection_unit_counted)),
            (alternatives, "gamma_sample", self._counted_gamma(alternatives.gamma_sample)),
            (alternatives, "_unit", self._counted_unit(alternatives._unit)),
            (baselines, "calibrate_baseline", calibrate_baseline),
            (harness, "calibrate_baseline", calibrate_baseline),
            (adaptive_test, "t_hat", s("estimators.t_hat", adaptive_test.t_hat)),
            (adaptive_test, "t_tilde_scale", s("estimators.t_tilde_scale", adaptive_test.t_tilde_scale)),
            (estimators, "basis_sums", s("bases.basis_sums", estimators.basis_sums)),
            (adaptive_test, "run_simple_test", s("adaptive_test.simple_test", adaptive_test.run_simple_test)),
            (adaptive_test, "run_composite_invariant_test",
             s("adaptive_test.composite_test", adaptive_test.run_composite_invariant_test)),
        ]
        for attr, name in (
            ("ks_statistic_batch", "baselines.ks_batch"),
            ("bickel_ritov_statistic_batch", "baselines.br_batch"),
            ("kallenberg_ledwina_statistic_batch", "baselines.kl_batch"),
            ("ks_exponential_statistic_batch", "baselines.ks_exp_batch"),
        ):
            kernel = s(name, getattr(baselines, attr), _rows)
            wiring += [(baselines, attr, kernel), (harness, attr, kernel)]
        # Null samplers are methods; patch each class that defines one.
        for cls in (null_models.NullDensity, *null_models.NullDensity.__subclasses__()):
            if "sample" in vars(cls):
                wiring.append((cls, "sample", s("null_models.sample", vars(cls)["sample"])))
        return wiring

    def install(self) -> None:
        self._saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        for owner, attr, replacement in self._patches:
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    # -- aggregation ------------------------------------------------------

    def layers(self) -> dict[str, dict]:
        """Per span name: calls, items, busy and self time in ns.  Self time
        is the span's duration minus the time its child spans cover."""
        children = [0] * len(self.spans)
        for name, start, end, parent, items in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, dict] = {}
        for k, (name, start, end, parent, items) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "items": 0, "busy_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["items"] += items
            agg["busy_ns"] += end - start
            agg["self_ns"] += end - start - children[k]
        return out


def pool_start_ms(repeats: int = 5) -> float:
    """Median extra wall time of ``rejection_counts`` with two workers over
    one worker, at four replicates: the cost of starting a process pool."""
    column = TestColumn("T_KS", TestKind.KS, baseline=BaselineConfig(BaselineKind.KS, 0.05, 1.0, 100))
    null = null_models.Uniform01()

    def wall(workers: int) -> float:
        t0 = time.perf_counter()
        harness.rejection_counts(null, None, 100, 4, [column], 0, "pool-probe", workers)
        return time.perf_counter() - t0

    wall(1)
    return 1e3 * statistics.median(wall(2) - wall(1) for _ in range(repeats))


# Per-layer metrics: (metric, span name, statistic, unit).  The statistics
# are ``per_item`` (busy time per replicate or sample), ``per_call`` (busy
# time per call), ``self_per_call``, ``share`` (self time over the traced
# wall time) and ``calls_per_op`` (calls per timed operation).
LAYER_METRICS = (
    ("streams.derive_us", "streams.derive", "per_call", "us"),
    ("streams.derive_calls", "streams.derive", "calls_per_op", "count"),
    ("streams.share", "streams.derive", "share", "ratio"),
    ("null_models.sample_us", "null_models.sample", "per_item", "us"),
    ("null_models.share", "null_models.sample", "share", "ratio"),
    ("alternatives.sample_us", "alternatives.sample", "per_item", "us"),
    ("alternatives.share", "alternatives.sample", "share", "ratio"),
    ("estimators.simple_batch_us", "estimators.simple_batch", "per_item", "us"),
    ("estimators.simple_batch_share", "estimators.simple_batch", "share", "ratio"),
    ("estimators.composite_batch_us", "estimators.composite_batch", "per_item", "us"),
    ("estimators.composite_batch_share", "estimators.composite_batch", "share", "ratio"),
    ("estimators.t_hat_us", "estimators.t_hat", "per_call", "us"),
    ("estimators.t_hat_share", "estimators.t_hat", "share", "ratio"),
    ("bases.basis_sums_us", "bases.basis_sums", "per_call", "us"),
    ("bases.basis_sums_share", "bases.basis_sums", "share", "ratio"),
    ("estimators.t_tilde_scale_us", "estimators.t_tilde_scale", "per_call", "us"),
    ("estimators.t_tilde_scale_share", "estimators.t_tilde_scale", "share", "ratio"),
    ("adaptive_test.simple_test_self_us", "adaptive_test.simple_test", "self_per_call", "us"),
    ("adaptive_test.composite_test_self_us", "adaptive_test.composite_test", "self_per_call", "us"),
    ("baselines.ks_batch_us", "baselines.ks_batch", "per_item", "us"),
    ("baselines.br_batch_us", "baselines.br_batch", "per_item", "us"),
    ("baselines.kl_batch_us", "baselines.kl_batch", "per_item", "us"),
    ("baselines.ks_exp_batch_us", "baselines.ks_exp_batch", "per_item", "us"),
    ("baselines.calibrate_s", "baselines.calibrate", "per_call", "s"),
    ("calibration.simulate_s", "calibration.simulate", "per_call", "s"),
    ("calibration.calibrate_s", "calibration.calibrate", "per_call", "s"),
    ("calibration.threshold_matrix_ms", "calibration.threshold_matrix", "per_call", "ms"),
    ("calibration.level_curve_ms", "calibration.level_curve", "per_call", "ms"),
    ("harness.rejection_counts_s", "harness.rejection_counts", "per_call", "s"),
)

_BASELINE_SPANS = ("baselines.ks_batch", "baselines.br_batch", "baselines.kl_batch",
                   "baselines.ks_exp_batch", "baselines.calibrate")
_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}


def layer_metrics(tracer: Tracer, traced_ops: list[float], untraced_ops: list[float], pools_opened: int) -> dict:
    """Every per-layer metric, from the spans of the traced operations, the
    wall times (s) of the traced and untraced operations and the pools the
    workload's pooled check opened.  A layer the workload never reaches
    reads 0."""
    layers = tracer.layers()
    wall_ns = 1e9 * sum(traced_ops)
    n_ops = len(traced_ops)
    empty = {"calls": 0, "items": 0, "busy_ns": 0, "self_ns": 0}
    metrics = {}
    for metric, span, stat, unit in LAYER_METRICS:
        agg = layers.get(span, empty)
        if stat == "share":
            value = agg["self_ns"] / wall_ns
        elif stat == "calls_per_op":
            value = agg["calls"] / n_ops
        else:
            ns = agg["self_ns"] if stat == "self_per_call" else agg["busy_ns"]
            count = agg["items"] if stat == "per_item" else agg["calls"]
            value = ns * _SCALE[unit] / count if count else 0.0
        metrics[metric] = (value, unit)
    baseline_self = sum(layers.get(s, empty)["self_ns"] for s in _BASELINE_SPANS)
    metrics["baselines.share"] = (baseline_self / wall_ns, "ratio")
    metrics["alternatives.acceptance_ratio"] = (
        tracer.accepted / tracer.proposed if tracer.proposed else 0.0, "ratio"
    )
    metrics["harness.pools_opened"] = (pools_opened, "count")
    traced = statistics.median(traced_ops)
    untraced = statistics.median(untraced_ops)
    metrics["trace.overhead_ms"] = (1e3 * (traced - untraced), "ms")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "ratio")
    metrics["trace.unattributed_share"] = (
        1.0 - sum(a["self_ns"] for a in layers.values()) / wall_ns, "ratio"
    )
    return metrics
