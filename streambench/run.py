"""End-to-end streaming benchmark for probestream.

    python3 streambench/run.py --workload walk_static --seed 1 --seconds 30 --trace 0

Plays the server and one thin client in a closed loop: one process, one
thread, each update starts when the previous one has finished. The synthetic
renderer and the correctness checks run with the clock stopped. The first
updates are warm-up (the client's join key frame among them): they are
checked but not timed. The timed phase runs whole GOPs and ends at the GOP
boundary nearest to `--seconds` of wall time, so every run times the same
share of key frames.

Times are reported at a fixed reference pace. The host is shared, and its
speed drifts by up to ~1.7x over seconds to minutes. Right before and right
after every update (and every set-up) a fixed pace probe, code of this file
that the library never runs, is timed; the measured time is multiplied by
`PACE_REF_MS` / the probe's time at that moment. Wall-clock medians are
printed beside the paced ones.

With `--trace 0` the last line reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of a traced run. The command exits 1 if
any update failed. See README.md in this directory for the metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from session import Session, Tracer  # noqa: E402
from workload import PAPER_DIMS, WORKLOADS, Scene  # noqa: E402

DIGEST_UPDATES = 16  # updates covered by the wire digest, whatever the run length
SETUP_REPEATS = 9
PACE_REPEATS = 3  # probe runs on each side of a timed region; their median is used
PACE_REF_MS = 1.6  # median probe time on the machine of README's figures
UPDATE_HZ = 10  # the paper's update rate, used to turn bytes into Mbps
MEGABIT = 1024 * 1024  # binary Mb, as in the paper

END_TO_END = {
    "update_ms_p50": "ms",
    "update_ms_p90": "ms",
    "server_ms_p50": "ms",
    "client_ms_p50": "ms",
    "updates_per_s": "1/s",
    "wire_mbps": "Mb/s",
    "success_rate": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

STREAM_NAMES = ("color", "visibility")
PER_LAYER = {
    "selection.pvs_ms": "ms",
    "selection.detect_ms": "ms",
    "selection.select_ms": "ms",
    "selection.rays": "count/update",
    "selection.pvs_probes": "count/update",
    **{f"selection.{m}.{s}": "count/update" for m in ("changed_probes", "selected_probes", "deferred_probes") for s in STREAM_NAMES},
    **{f"packing.{m}.{s}": "ms" for m in ("build_ms", "pack_ms", "unpack_ms", "assign_ms", "apply_ms") for s in STREAM_NAMES},
    "packing.slot_hits": "count/update",
    "packing.slot_new": "count/update",
    "packing.slot_evictions": "count/update",
    "packing.selected_bytes": "B/update",
    "packing.core_bytes": "B/update",
    "packing.plane_bytes": "B/update",
    **{f"codec.{m}.{s}": "ms" for m in ("encode_ms", "decode_ms") for s in STREAM_NAMES},
    "codec.serialize_ms": "ms",
    "codec.parse_ms": "ms",
    **{f"codec.frame_bytes.{s}": "B/update" for s in STREAM_NAMES},
    **{f"codec.ratio.{s}": "ratio" for s in STREAM_NAMES},
    "codec.key_frames": "count",
    "glue.server_ms": "ms",
    "trace.update_ms_p50": "ms",
    "trace.span_coverage_pct": "%",
    "trace.overhead_pct": "%",
}


def environment(seed: int, workload: str) -> dict:
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read from files; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


_PACE_VEC = np.random.default_rng(0).random(4096)


def pace_probe_s() -> float:
    """Median time of a fixed kernel of Python loops and small numpy calls.

    Like an update, it is mostly interpreter work (dict and list updates)
    with some numpy calls on arrays the size of the volume's probe lists.
    Pure-Python work tracks the host's drift in the library's update time
    closely; a numpy-heavy kernel under-reads it. The collector is off so
    that the library's heap cannot slow the probe.
    """
    times = []
    gc.disable()
    try:
        for _ in range(PACE_REPEATS):
            t0 = perf_counter()
            acc: dict[int, int] = {}
            items: list[int] = []
            for i in range(8000):
                acc[i & 511] = acc.get(i & 511, 0) + i
                items.append(i * 3)
            v = _PACE_VEC
            for _ in range(10):
                v = np.sort(v * 1.0001)
                np.flatnonzero(v > 0.5)
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def pace_factor(before_s: float, after_s: float) -> float:
    """Multiplier from wall time to time at the reference pace."""
    return PACE_REF_MS / 1e3 / ((before_s + after_s) / 2)


def span_cost_s(calls: int = 20000) -> float:
    """Extra wall time of one recorded span over an unrecorded call."""
    noop = lambda: None  # noqa: E731
    cost = []
    for enabled in (True, False):
        tracer = Tracer(enabled)
        t0 = perf_counter()
        for _ in range(calls):
            tracer.call("calibrate", noop)
        cost.append(perf_counter() - t0)
    return max(cost[0] - cost[1], 0.0) / calls


def run(workload: str, seed: int, seconds: float, trace: bool, dims=PAPER_DIMS) -> dict:
    """Run one workload; returns metrics, samples, digest and failures."""
    wl = WORKLOADS[workload]
    setup = []
    for _ in range(SETUP_REPEATS):
        before = pace_probe_s()
        t0 = perf_counter()
        scene = Scene(wl, seed, dims)
        session = Session(scene, trace)
        t1 = perf_counter()
        setup.append((t1 - t0) * pace_factor(before, pace_probe_s()))

    digest = hashlib.sha256()
    samples, problems = [], []
    attempted = failed = seq = 0
    timed_start = None
    while True:
        if seq == wl.warmup:
            timed_start = gop_start = perf_counter()
        scene.advance(seq)
        attempted += 1
        before = pace_probe_s()
        try:
            u = session.update(seq)
            pace = pace_factor(before, pace_probe_s())
            found = session.check(u)
            counts, inconsistent = session.counters(u)
            found += inconsistent
        except Exception:  # a failed update is counted and the run goes on
            u = None
            found = [traceback.format_exc(limit=4)]
        if found:
            failed += 1
            problems += [f"update {seq}: {p}" for p in found]
        if u is not None:
            if seq < DIGEST_UPDATES:
                for part in u.wire:
                    digest.update(part)
            if seq >= wl.warmup:
                samples.append(_sample(u, counts, pace))
        seq += 1
        if timed_start is None or (seq - wl.warmup) % wl.gop:
            continue
        # at a GOP boundary: stop at the one nearest to `seconds`
        now = perf_counter()
        gop_s, gop_start = now - gop_start, now
        if seq >= DIGEST_UPDATES and now - timed_start + gop_s / 2 >= seconds:
            break

    metrics = _trace_metrics(samples) if trace else _end_to_end(samples, setup, failed, attempted)
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": samples,
        "wire_digest": digest.hexdigest(),
        "digest_updates": DIGEST_UPDATES,
        "metrics": metrics,
    }


def _sample(u, counts: dict, pace: float) -> dict:
    """One timed update; every `_ms` value is at the reference pace."""
    ms = 1e3 * pace
    spans: dict[str, float] = {}
    for name, t0, t1 in u.spans:
        spans[name] = spans.get(name, 0.0) + (t1 - t0) * ms
    return {
        "pace": pace,
        "wall_update_ms": u.update_s * 1e3,
        "wall_server_ms": u.server_s * 1e3,
        "wall_client_ms": u.client_s * 1e3,
        "update_ms": u.update_s * ms,
        "server_ms": u.server_s * ms,
        "client_ms": u.client_s * ms,
        "wire_bytes": u.wire_bytes,
        "span_ms": spans,
        "span_count": len(u.spans),
        "counts": counts,
    }


def _end_to_end(samples, setup, failed, attempted) -> dict:
    update = [s["update_ms"] for s in samples]
    return {
        "update_ms_p50": statistics.median(update),
        "update_ms_p90": float(np.percentile(update, 90)),
        "server_ms_p50": statistics.median(s["server_ms"] for s in samples),
        "client_ms_p50": statistics.median(s["client_ms"] for s in samples),
        "updates_per_s": len(samples) / (sum(update) / 1e3),
        "wire_mbps": statistics.fmean(s["wire_bytes"] for s in samples) * 8 * UPDATE_HZ / MEGABIT,
        "success_rate": 1.0 - failed / attempted,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _trace_metrics(samples) -> dict:
    out = {}
    for name, unit in PER_LAYER.items():
        if unit == "ms" and name != "trace.update_ms_p50":
            out[name] = statistics.median(s["span_ms"].get(name, 0.0) for s in samples)
        elif unit in ("count/update", "B/update"):
            out[name] = statistics.fmean(s["counts"][name] for s in samples)
    for stream in STREAM_NAMES:
        plane = sum(s["counts"][f"packing.plane_bytes.{stream}"] for s in samples)
        frame = sum(s["counts"][f"codec.frame_bytes.{stream}"] for s in samples)
        out[f"codec.ratio.{stream}"] = plane / frame
    out["codec.key_frames"] = sum(s["counts"]["codec.key_frames"] for s in samples)
    update_ms = statistics.median(s["update_ms"] for s in samples)
    out["trace.update_ms_p50"] = update_ms
    out["trace.span_coverage_pct"] = 100.0 * min(
        sum(s["span_ms"].values()) / s["update_ms"] for s in samples
    )
    spans = statistics.fmean(s["span_count"] for s in samples)
    wall_ms = statistics.median(s["wall_update_ms"] for s in samples)
    out["trace.overhead_pct"] = 100.0 * span_cost_s() * spans * 1e3 / wall_ms
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment(args.seed, args.workload)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    units = PER_LAYER if args.trace else END_TO_END

    n = len(result["samples"])
    env.update(
        updates=result["attempted"],
        timed_updates=n,
        warmup_updates=WORKLOADS[args.workload].warmup,
        wire_digest=result["wire_digest"],
        digest_updates=result["digest_updates"],
    )
    print(json.dumps({"env": env}))
    for p in result["problems"][:20]:
        print(f"FAILED {p}", file=sys.stderr)
    for name, value in result["metrics"].items():
        print(f"{name} = {value:.6g} {units[name]} (n={n} timed updates)")
    print(f"error_rate = {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} updates failed)")
    if n:
        for name in ("update_ms", "server_ms", "client_ms"):
            wall = statistics.median(s[f"wall_{name}"] for s in result["samples"])
            print(f"wall clock, not paced: {name}_p50 = {wall:.6g} ms (n={n})")
        probe = statistics.median(PACE_REF_MS / s["pace"] for s in result["samples"])
        print(f"pace probe = {probe:.4g} ms median, reference {PACE_REF_MS} ms (n={n})")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
