"""One benchmark process: set up one workload, run its closed loop, check
every output and print a JSON summary as the last line of stdout.

Started by run.py, which pins the BLAS thread count in the environment
before numpy is imported here.  One client sends the next request only when
the previous one has returned.  A request's inputs are generated before its
timer starts, and oracle checks run after it stops.

On a shared host the speed of a core can drift by a factor of two within
seconds, and every kind of request slows together.  A fixed cache-resident
kernel is therefore timed just before and just after every request; each
request time is scaled by the run's quiet probe time (5th percentile) over
the probe time around it.  End-to-end metrics use the scaled times; the
unscaled ones are recorded too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
WALL_LIMIT_S = 120.0  # stop starting new cycles after this much wall time
sys.path.insert(0, str(ROOT / "src"))

from metrics import LAYERS, median, nearest_rank, tail_percentile  # noqa: E402
from tracing import NullTracer, PeakProbe, Tracer, summarize  # noqa: E402


def aligned(shape, dtype, align=4096) -> np.ndarray:
    """Zeroed array whose data starts on an `align`-byte boundary."""
    dtype = np.dtype(dtype)
    size = int(np.prod(shape)) * dtype.itemsize
    raw = np.zeros(size + align, dtype=np.uint8)
    offset = -raw.ctypes.data % align
    return raw[offset:offset + size].view(dtype).reshape(shape)


class SpeedProbe:
    """Times a fixed kernel (FFT, gather, sum, exp) on page-aligned buffers
    it owns, so neither the heap state nor the cache state a request leaves
    behind changes its speed; the best of five repetitions counts."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = aligned(4096, complex)
        self.x[:] = rng.standard_normal(4096) + 1j * rng.standard_normal(4096)
        self.index = aligned((64, 256), np.intp)
        self.index[:] = rng.integers(0, 4096, size=(64, 256))
        self.phase = aligned(1024, complex)
        self.phase[:] = 1j * self.x.real[:1024]
        self.spec = aligned(4096, complex)
        self.gather = aligned((64, 256), complex)
        self.sums = aligned(64, complex)
        self.wave = aligned(1024, complex)

    def __call__(self) -> float:
        best = float("inf")
        for _ in range(5):
            t0 = time.perf_counter()
            np.fft.fft(self.x, out=self.spec)
            np.take(self.x, self.index, out=self.gather)
            self.gather.sum(axis=1, out=self.sums)
            np.exp(self.phase, out=self.wave)
            best = min(best, time.perf_counter() - t0)
        return best


def run_cycle(workload, tracer, probe, index, records, check=True, log=None) -> float:
    """Run one cycle's requests in order; append one record per request and
    return the summed request time."""
    timed = 0.0
    for req in workload.cycle(index, tracer):
        rid = len(records)
        error = None
        before = probe()
        t0 = time.perf_counter()
        try:
            with tracer.request(req.kind, rid):
                out = req.execute(tracer)
        except Exception:  # a failed request is counted, and the loop goes on
            error = traceback.format_exc()
        latency = time.perf_counter() - t0
        after = probe()
        timed += latency
        rec = {"id": rid, "cycle": index, "kind": req.kind, "n": req.n,
               "latency_s": latency, "probe_s": 0.5 * (before + after), "props": req.props,
               "errors": {}, "failures": [], "counts": {}}
        if error is not None:
            rec["failures"].append(error.strip().splitlines()[-1])
            if log is not None:
                log.write(error)
        elif check:
            try:
                result = req.check(out)
            except Exception:
                rec["failures"].append("oracle raised: " + traceback.format_exc().strip().splitlines()[-1])
            else:
                rec["errors"], rec["failures"], rec["counts"] = result.errors, result.failures, result.counts
        records.append(rec)
    return timed


def rescale(*record_lists) -> float:
    """Add `scaled_s` to every record; returns the quiet probe time."""
    quiet = float(np.quantile([r["probe_s"] for recs in record_lists for r in recs], 0.05))
    for recs in record_lists:
        for r in recs:
            r["scaled_s"] = r["latency_s"] * quiet / r["probe_s"]
    return quiet


def run_plain(workload, probe, seconds, log=None):
    """Untraced closed loop: whole cycles until the summed request time
    reaches `seconds`."""
    records = []
    timed = 0.0
    start = time.monotonic()
    index = 0
    while index == 0 or (timed < seconds and time.monotonic() - start < WALL_LIMIT_S):
        timed += run_cycle(workload, NullTracer(), probe, index, records, log=log)
        index += 1
    return records, index


def run_traced(workload, probe, seconds, log=None):
    """Each cycle runs untraced and then again traced, until the untraced
    request time reaches `seconds`; only the traced copy is checked.  Peak
    memory is probed on a separate, untimed run of the first cycle."""
    tracer = Tracer()
    plain, records = [], []
    plain_s = 0.0
    start = time.monotonic()
    index = 0
    while index == 0 or (plain_s < seconds and time.monotonic() - start < WALL_LIMIT_S):
        plain_s += run_cycle(workload, NullTracer(), probe, index, plain, check=False)
        run_cycle(workload, tracer, probe, index, records, log=log)
        index += 1
    rescale(plain, records)
    peaks = PeakProbe()
    for req in workload.cycle(0, peaks):
        req.execute(peaks)
    return records, index, tracer, peaks.peaks_mb, plain


def latency_metrics(records, key):
    lat = sorted(r[key] for r in records)
    passed = sum(1 for r in records if not r["failures"])
    pct = tail_percentile(len(lat))
    return {
        "throughput_rps": passed / sum(lat),
        "latency_p50_s": median(lat),
        "latency_tail_s": nearest_rank(lat, pct),
    }, pct


def layer_metrics(records, tracer, peaks_mb, plain):
    summary = summarize(tracer.spans, {r["id"]: r["scaled_s"] / r["latency_s"] for r in records})
    calls, self_s = summary["calls"], summary["self_s"]
    worst, counts = {}, {}
    for r in records:
        for layer, err in r["errors"].items():
            worst[layer] = max(worst.get(layer, 0.0), err)
        for name, value in r["counts"].items():
            counts[name] = counts.get(name, 0) + value
    out = {}
    for layer, stats in LAYERS:
        for stat in stats:
            name = f"{layer}.{stat}"
            if stat == "calls":
                value = calls.get(layer, 0)
            elif stat == "self_s":
                value = self_s.get(layer, 0.0)
            elif stat == "rel_err":
                value = worst.get(layer, 0.0)
            elif stat == "peak_mb":
                value = peaks_mb.get(layer, 0.0)
            elif stat == "checked_share":
                value = 1.0 if calls.get(layer) else 0.0  # every term is checked
            elif stat in ("points", "kernel_calls"):
                key = name if stat == "kernel_calls" else f"{layer}.points"
                value = tracer.counters.get(key, 0)
            else:
                value = counts.get(name, 0)
            out[name] = value
    models = [r["props"] for r in records if "terms" in r["props"]]
    terms = sum(p["terms"] for p in models)
    out["model.aligned_share"] = sum(p["aligned"] for p in models) / terms if terms else 0.0
    out["model.groups"] = sum(p["groups"] for p in models) / len(models) if models else 0.0
    out["model.terms"] = terms / len(models) if models else 0.0
    evals = [r["props"]["xdep"] for r in records if "xdep" in r["props"]]
    out["symbols.xdep_share"] = sum(evals) / len(evals) if evals else 0.0
    out["input.n"] = sum(r["n"] for r in records) / len(records)
    out["requests.failed_frac"] = sum(1 for r in records if r["failures"]) / len(records)
    out["trace.overhead_frac"] = sum(r["scaled_s"] for r in records) / sum(r["scaled_s"] for r in plain) - 1.0
    req_s = summary["request_s"]
    out["trace.layer_share"] = 1.0 - summary["request_self_s"] / req_s if req_s else 0.0
    return out


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "malloc_mmap_threshold": int(os.environ.get("MALLOC_MMAP_THRESHOLD_", "0")),
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "python": sys.version.split()[0],
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probe = SpeedProbe()
    result = {"env": environment(), "setup_s": setup_s}
    if args.trace:
        records, cycles, tracer, peaks_mb, plain = run_traced(workload, probe, args.seconds / 2, sys.stderr)
        result["metrics"] = layer_metrics(records, tracer, peaks_mb, plain)
        spans = tracer.spans
        extra = {"untraced_requests": plain}
    else:
        records, cycles = run_plain(workload, probe, args.seconds, sys.stderr)
        result["quiet_probe_s"] = rescale(records)
        metrics, pct = latency_metrics(records, "scaled_s")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = metrics
        result["tail"] = {"percentile": pct, "requests": len(records)}
        result["unscaled"] = latency_metrics(records, "latency_s")[0]
        spans = []
        extra = {}
    result["cycles"] = cycles
    result["attempted"] = len(records)
    result["failed"] = sum(1 for r in records if r["failures"])
    mismatches = sum(r["counts"].get("tiles.collection_validate.mismatches", 0) for r in records)
    validations = sum(1 for r in records if r["kind"] == "collection_validate")
    if validations:
        result["known_defects"] = {"collection_validate_mismatches": mismatches,
                                   "collection_validate_requests": validations}

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(dump, "w") as fh:
        json.dump({"result": result, "requests": records, "spans": spans, **extra}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
