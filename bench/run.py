"""The wsteenrod benchmark: cold runs of one workload, checked and measured.

    python3 bench/run.py --workload sphere-32 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all

Every sample is a fresh interpreter running bench/child.py, because users
pay cold caches on every invocation: the module-level lru_caches of
wsteenrod.milnor would make any in-process repeat a warm, different
program.  Samples are launched back to back (a closed loop of one client)
until the next one would end after --seconds; the metrics are medians over
the samples.  Each sample's output is checked against the reference in
bench/workloads.py, and a sample fails when the child exits nonzero, its
chart SHA-256 differs or the verify verdict is not "pass".

With --trace 0 the samples are untraced and give the end-to-end metrics.
With --trace 1 untraced and traced samples alternate; the traced ones give
the per-layer metrics (bench/tracer.py), and the two together give the
tracing overhead.  Metric names and units come from BENCHMARK.json.

A summary is printed first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  --workload
all runs every workload untraced and then traced, one JSON line each.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import NamedTuple

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "_out")
CHILD = os.path.join(BENCH, "child.py")

sys.path.insert(0, BENCH)
from tracer import layer_metrics  # noqa: E402
from workloads import REFERENCE_SHA256, REFERENCE_VERDICT, WORKLOADS  # noqa: E402

# Launching stops once every mode has this many samples and the next sample
# would end after --seconds.
MIN_SAMPLES = {0: 3, 1: 2}
# No sample is started, and a running one is killed, past this many seconds
# into the run, which keeps a run well inside the 180 s it may take.
HARD_LIMIT_S = 150.0


class Sample(NamedTuple):
    traced: bool
    ok: bool
    elapsed_s: float  # launch to exit, for scheduling only
    wall_s: float | None  # launch to the output written
    setup_s: float | None  # launch to the first minimal_resolution/run_suites call
    cpu_s: float
    peak_rss_mb: float
    layers: dict | None


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def declared_metrics() -> dict[int, dict[str, str]]:
    """Metric name -> unit from BENCHMARK.json, for --trace 0 and --trace 1."""
    spec = load_spec()
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def child_command(workload: str, seed: int, out: str, spans: str | None) -> list[str]:
    args = list(WORKLOADS[workload])
    if args[0] == "verify":
        args += ["--seed", str(seed)]
    args += ["--out", out]
    if spans is not None:
        args += ["--spans", spans]
    return [sys.executable, CHILD, *args]


def _wait(proc: subprocess.Popen, deadline: float):
    """Reap the child with its own resource usage; kill it past the deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            print(f"bench: killed a sample that ran past the {HARD_LIMIT_S:.0f} s limit",
                  file=sys.stderr)
            return usage
        time.sleep(0.005)


def launch(workload: str, seed: int, traced: bool, deadline: float) -> Sample:
    tag = f"{workload}.{'traced' if traced else 'plain'}"
    out = os.path.join(OUT, f"{tag}.out")
    spans = os.path.join(OUT, f"{tag}.spans.json") if traced else None
    log_path = os.path.join(OUT, f"{tag}.log")
    with open(log_path, "w+b") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(child_command(workload, seed, out, spans), stdout=log, cwd=ROOT)
        usage = _wait(proc, deadline)
        elapsed = time.monotonic() - t0
        log.seek(0)
        lines = log.read().decode("utf-8", "replace").splitlines()
    cpu = usage.ru_utime + usage.ru_stime
    rss = usage.ru_maxrss / 1024.0
    try:
        rec = json.loads(lines[-1])
    except (IndexError, ValueError):
        rec = None
    if proc.returncode != 0 or rec is None:
        return Sample(traced, False, elapsed, None, None, cpu, rss, None)
    ok = (
        rec["exit"] == 0
        and rec["sha256"] == REFERENCE_SHA256.get(workload, rec["sha256"])
        and rec["verdict"] == REFERENCE_VERDICT.get(workload, rec["verdict"])
    )
    return Sample(traced, ok, elapsed, rec["done"] - t0, rec["setup"] - t0, cpu, rss, rec["layers"])


def collect(workload: str, seed: int, seconds: float, trace: int) -> list[Sample]:
    os.makedirs(OUT, exist_ok=True)
    # compile the library's bytecode once, as an installed copy would have it
    subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); import wsteenrod.cli"],
        check=True, cwd=ROOT,
    )
    modes = (False, True) if trace else (False,)
    start = time.monotonic()
    samples: list[Sample] = []
    while True:
        traced = modes[len(samples) % len(modes)]
        samples.append(launch(workload, seed, traced, start + HARD_LIMIT_S))
        upcoming = modes[len(samples) % len(modes)]
        like = [s.elapsed_s for s in samples if s.traced == upcoming] or [samples[-1].elapsed_s]
        end = time.monotonic() + statistics.median(like)
        enough = all(sum(s.traced == m for s in samples) >= MIN_SAMPLES[trace] for m in modes)
        if end > start + HARD_LIMIT_S or (enough and end > start + seconds):
            return samples


def end_to_end(samples: list[Sample]) -> dict[str, float]:
    good = [s for s in samples if s.ok and not s.traced]
    return {
        "wall_s": statistics.median(s.wall_s for s in good),
        "cpu_s": statistics.median(s.cpu_s for s in good),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in good),
        "setup_s": statistics.median(s.setup_s for s in good),
    }


def _median(values: list):
    """Median; counts stay whole numbers (they repeat exactly across samples)."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def per_layer(samples: list[Sample]) -> dict[str, float]:
    plain = [s.wall_s for s in samples if s.ok and not s.traced]
    traced = [s for s in samples if s.ok and s.traced]
    per_sample = [layer_metrics(s.layers, s.wall_s) for s in traced]
    out = {name: _median([m[name] for m in per_sample]) for name in per_sample[0]}
    out["trace.wall_s"] = statistics.median(s.wall_s for s in traced)
    out["trace.overhead_frac"] = out["trace.wall_s"] / statistics.median(plain) - 1.0
    return out


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    declared = declared_metrics()[trace]
    samples = collect(workload, seed, seconds, trace)
    failed = sum(not s.ok for s in samples)
    good_modes = {s.traced for s in samples if s.ok}
    if good_modes != ({False, True} if trace else {False}):
        raise RuntimeError(f"{workload}: no sample succeeded in some mode ({failed} failed)")
    values = per_layer(samples) if trace else end_to_end(samples)
    if set(values) != set(declared):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(declared))} differ from BENCHMARK.json"
        )
    plain = sum(1 for s in samples if not s.traced)
    lines = [
        f"# {workload} seed={seed} trace={trace}: {len(samples)} cold runs "
        f"({plain} untraced, {len(samples) - plain} traced), "
        f"fail_frac={failed / len(samples):.4g} ({failed}/{len(samples)})",
    ]
    lines += [f"{name:34s} {values[name]:>14.6g} {declared[name]}" for name in declared]
    result = {
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cold-run benchmark of wsteenrod")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wsteenrod", "__init__.py")):
        print(f"bench: no wsteenrod source under {SRC}", file=sys.stderr)
        return 2
    jobs = (
        [(w, t) for w in WORKLOADS for t in (0, 1)]
        if args.workload == "all"
        else [(args.workload, args.trace)]
    )
    for workload, trace in jobs:
        result, lines = run(workload, args.seed, args.seconds, trace)
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
