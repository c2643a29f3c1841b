"""Self-tests of the benchmark harness.

    python3 -m pytest bench/tests -q

The last tests start the benchmark itself for a short run of every
workload, so the file takes about a minute.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from metrics import END_TO_END, nearest_rank, per_layer_metrics, tail_percentile  # noqa: E402
from oracles import si  # noqa: E402
from tracing import NullTracer, PeakProbe, Tracer, self_times, summarize  # noqa: E402
from worker import rescale  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from bilop.model import ModelSum  # noqa: E402
from bilop.signal import SampledFunction  # noqa: E402
from bilop.tiles import Collection, TriTile  # noqa: E402


def _feed(h, obj):
    if isinstance(obj, SampledFunction):
        _feed(h, (obj.origin, obj.spacing))
        h.update(obj.values.tobytes())
    elif isinstance(obj, np.ndarray):
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, ModelSum):
        _feed(h, obj.collection)
        h.update(np.array([t.coeff for t in obj.terms]).tobytes())
    elif isinstance(obj, Collection):
        _feed(h, [s.key() for s in obj])
    elif isinstance(obj, TriTile):
        _feed(h, obj.key())
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _feed(h, item)
    else:
        h.update(repr(obj).encode())


def fingerprint(requests) -> str:
    h = hashlib.sha256()
    for req in requests:
        _feed(h, (req.kind, req.n, req.inputs))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_requests(name):
    def requests(seed, index):
        return WORKLOADS[name](seed).cycle(index, NullTracer())

    first = fingerprint(requests(5, 1))
    assert fingerprint(requests(5, 1)) == first
    assert fingerprint(requests(6, 1)) != first
    assert fingerprint(requests(5, 2)) != first
    kinds = [r.kind for r in requests(5, 1)]
    assert kinds == [r.kind for r in requests(6, 1)]  # the mix does not depend on the seed


def test_self_time_is_duration_minus_children():
    spans = [
        {"name": "request.x", "start": 0.0, "end": 10.0, "parent": None, "request": 0},
        {"name": "a", "start": 1.0, "end": 3.0, "parent": 0, "request": 0},
        {"name": "b", "start": 4.0, "end": 8.5, "parent": 0, "request": 0},
        {"name": "c", "start": 5.0, "end": 6.0, "parent": 2, "request": 0},
    ]
    assert self_times(spans) == pytest.approx([10.0 - 2.0 - 4.5, 2.0, 4.5 - 1.0, 1.0])
    summary = summarize(spans)
    assert summary["request_s"] == pytest.approx(10.0)
    assert summary["request_self_s"] == pytest.approx(3.5)
    assert summary["self_s"] == pytest.approx({"a": 2.0, "b": 3.5, "c": 1.0})


def test_recorded_spans_nest_and_partition_time():
    tr = Tracer()
    with tr.request("demo", 7):
        tr.call("outer", lambda: tr.call("inner", sum, range(10000)))
        tr.wrap("points", np.zeros)(12)
    names = [s["name"] for s in tr.spans]
    assert names == ["request.demo", "outer", "inner", "points"]
    assert [s["parent"] for s in tr.spans] == [None, 0, 1, 0]
    assert all(s["request"] == 7 for s in tr.spans)
    assert tr.counters["points.points"] == 12
    own = self_times(tr.spans)
    assert sum(own) == pytest.approx(tr.spans[0]["end"] - tr.spans[0]["start"])
    assert min(own) >= 0.0


def test_peak_probe_sees_the_largest_allocation():
    probe = PeakProbe()
    probe.call("alloc", lambda: np.ones(1 << 20).sum(), peak=True)  # 8 MiB
    probe.call("other", np.ones, 1 << 22)  # not marked: not measured
    assert 8.0 <= probe.peaks_mb["alloc"] < 9.0
    assert "other" not in probe.peaks_mb


def test_rescale_uses_the_quiet_probe_time():
    records = [{"latency_s": 1.0, "probe_s": p} for p in np.linspace(1.0, 2.0, 101)]
    quiet = rescale(records)
    assert quiet == pytest.approx(1.05)
    for r in records:
        assert r["scaled_s"] == pytest.approx(r["latency_s"] * 1.05 / r["probe_s"])


def test_tail_rule():
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(11) == 50  # too few samples for a tail beyond the median
    values = list(range(1, 101))
    assert nearest_rank(values, 90) == 90
    assert sum(v > nearest_rank(values, 90) for v in values) == 10
    for count in (20, 57, 100, 183, 1000):
        pct = tail_percentile(count)
        rank = math.ceil(pct * count / 100)
        assert count - rank >= 10
        assert count - math.ceil((pct + 1) * count / 100) < 10 or pct == 99


def test_sine_integral_known_values():
    known = {
        1.0: 0.9460830703671830,
        math.pi: 1.8519370519824662,
        4.0: 1.7582031389490531,
        10.0: 1.6583475942188740,
        20.0: 1.5482417010434398,
    }
    got = si(np.array(list(known)))
    assert np.max(np.abs(got - np.array(list(known.values())))) < 1e-14
    assert si(np.array([0.0]))[0] == 0.0
    assert si(np.array([-2.5]))[0] == pytest.approx(-si(np.array([2.5]))[0], abs=0, rel=1e-15)
    assert si(np.array([1e6]))[0] == pytest.approx(math.pi / 2, abs=2e-6)


def test_sine_integral_matches_scipy_when_present():
    special = pytest.importorskip("scipy.special")
    x = np.linspace(-300.0, 300.0, 6001)
    assert np.max(np.abs(si(x) - special.sici(x)[0])) < 1e-13


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == per_layer_metrics()
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])


def run_bench(cwd, workload, trace, seconds=1):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_prints_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = END_TO_END if trace == 0 else per_layer_metrics()
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {n: u for n, u, _ in expected}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace == 1:
        assert result["metrics"]["trace.layer_share"]["value"] >= 0.9


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "op_mix", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
