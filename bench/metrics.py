"""Names, units and directions of every metric the benchmark prints, and
the order statistics it reports."""

from __future__ import annotations

import math

# (layer, statistics) pairs reported by the traced run
LAYERS = (
    ("operators.eval_direct.xindep", ("calls", "self_s", "rel_err", "peak_mb")),
    ("operators.eval_direct.xdep", ("calls", "self_s", "rel_err")),
    ("symbols.eval", ("calls", "points", "self_s")),
    ("operators.bht_truncated", ("calls", "self_s", "rel_err", "peak_mb")),
    ("operators.maximal_freq", ("calls", "self_s", "rel_err")),
    ("bumps.phi", ("calls", "points", "self_s")),
    ("operators.maximal_avg", ("calls", "self_s")),
    ("operators.maximal_kernel", ("calls", "self_s", "kernel_calls")),
    ("signal.hardy_littlewood_max", ("calls", "self_s", "rel_err", "peak_mb")),
    ("model.model_sum_eval", ("calls", "self_s", "rel_err", "peak_mb", "checked_share")),
    ("model.model_sum_decompose", ("calls", "self_s")),
    ("model.reconstruct", ("calls", "self_s", "rel_err", "pieces")),
    ("tiles.wave_packet", ("calls", "self_s", "rel_err", "peak_mb")),
    ("tiles.packet_coefficient", ("calls", "self_s", "rel_err")),
    ("tiles.size_star", ("calls", "self_s", "rel_err", "peak_mb")),
    ("tiles.collection_validate", ("calls", "self_s", "rel_err", "mismatches")),
    ("model.tree_proposition_diagnostic", ("calls", "self_s", "rel_err")),
)
STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "rel_err": ("1", "lower"),
    "peak_mb": ("MB", "lower"),
    "points": ("count", "lower"),
    "kernel_calls": ("count", "lower"),
    "pieces": ("count", "lower"),
    "checked_share": ("1", "higher"),
    "mismatches": ("count", "lower"),
}
# input properties and run-level figures of the traced run
EXTRA_METRICS = (
    ("model.aligned_share", "1", "higher"),
    ("model.groups", "count", "lower"),
    ("model.terms", "count", "lower"),
    ("symbols.xdep_share", "1", "lower"),
    ("input.n", "count", "lower"),
    ("requests.failed_frac", "1", "lower"),
    ("trace.overhead_frac", "1", "lower"),
    ("trace.layer_share", "1", "higher"),
)
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def per_layer_metrics():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for layer, stats in LAYERS:
        for stat in stats:
            unit, better = STAT_UNITS[stat]
            out.append((f"{layer}.{stat}", unit, better))
    return out + list(EXTRA_METRICS)


def nearest_rank(sorted_values, pct: int) -> float:
    rank = max(math.ceil(pct * len(sorted_values) / 100), 1)
    return sorted_values[rank - 1]


def tail_percentile(count: int, beyond: int = 10) -> int:
    """Highest whole percentile whose nearest-rank sample has at least
    `beyond` samples above it (90 at 100 samples); 50 when there are too
    few samples for any."""
    for pct in range(99, 49, -1):
        if count - math.ceil(pct * count / 100) >= beyond:
            return pct
    return 50


def median(values) -> float:
    v = sorted(values)
    mid = len(v) // 2
    return v[mid] if len(v) % 2 else 0.5 * (v[mid - 1] + v[mid])
