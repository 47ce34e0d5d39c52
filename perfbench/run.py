"""relaxlab benchmark: run one workload through relaxlab's CLI entry points.

    python3 perfbench/run.py --workload epsilon-n512 --seed 0 --seconds 40 --trace 0

Run from the repository root. Each sample is a fresh worker process
(perfbench/worker.py) that imports relaxlab from src/, validates the
generated config with relaxlab.cli.parse_config_dict and hands it to
relaxlab.cli.dispatch with jobs=1: a closed loop with one client, one run at
a time, so every run pays for the lazy tables as a CLI run does. The seed
becomes the config's `seed`.

--trace 0 reports the end-to-end metrics (medians over the runs): wall_s,
setup_s and peak_rss_mb. --trace 1 alternates untraced and traced runs and
reports the per-layer metrics of the traced ones, the tracing overhead and
the 1D kernel table. Every run is checked against the acceptance
tolerances, fits.json must be byte-identical between runs, and the work
counts must repeat exactly. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads
from kernels import metric_names as kernel_metric_names
from tracer import EXACT_COUNTS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
# An untraced cycle is three set-up-only samples and one run; at least two
# cycles, since fits.json is compared between runs. Host speed drifts by
# 10-20% over seconds on shared hosts, so set-up is sampled between the runs.
UNTRACED_CYCLE = ["setup", "setup", "setup", "run"]
MIN_UNTRACED_CYCLES = 2
# A traced cycle pairs an untraced run with a traced one, for the overhead.
TRACED_CYCLE = ["run", "trace"]
MIN_TRACED_CYCLES = 2
LAST_START_S = 140.0    # start no sample that is expected to end after this
WORKER_LIMIT_S = 170.0  # a worker still running then is killed

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith((".calls", ".steps", ".created")):
        return "count"
    if name.endswith(".bytes"):
        return "bytes"
    if name.endswith(".us") or name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".ms"):
        return "ms"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "ratio"


# ---------------------------------------------------------------------------
# machine facts (read-only)

def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_facts() -> dict:
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{idx}/level"), _read(f"{idx}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(f"{idx}/size")
    return {"nproc": os.cpu_count(), "cpu_model": model, "cache_per_cpu0": caches,
            "python": platform.python_version(), "git_commit": git_commit()}


def ref_loop_ms(seconds: float = 0.5) -> float:
    """Median time of a fixed pure-Python loop: a gauge of the host's speed
    while the benchmark runs, since shared hosts drift by tens of percent."""
    times, t_end = [], time.perf_counter() + seconds
    while time.perf_counter() < t_end:
        t0 = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref))
        if not sha:
            packed = _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines()
            sha = next((ln.split()[0] for ln in packed if ln.endswith(" " + ref)), "")
        head = sha
    return head or "unknown (not a git checkout)"


# ---------------------------------------------------------------------------
# samples

class Bench:
    """Worker processes of one benchmark run, with their shared paths and clock."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.start = time.perf_counter()
        self.count = 0
        make_config, self.gate = workloads.WORKLOADS[workload]
        self.cfg = make_config(seed)
        shutil.rmtree(OUT, ignore_errors=True)
        os.makedirs(OUT)
        self.cfg_path = os.path.join(OUT, "config.json")
        with open(self.cfg_path, "w") as fh:
            json.dump(self.cfg, fh)

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def sample(self, mode: str) -> dict:
        """Run one worker; its result dict, which holds "error" if it failed."""
        self.count += 1
        result = os.path.join(OUT, f"sample{self.count}.json")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--config", self.cfg_path, "--out", os.path.join(OUT, f"runs{self.count}"),
               "--result", result, "--mode", mode, "--seed", str(self.seed)]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(1.0, WORKER_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            return {"mode": mode, "error": f"{mode} worker killed after the time limit"}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit status {proc.returncode}"]
            return {"mode": mode, "error": f"{mode} worker failed: {tail[0]}"}
        with open(result) as fh:
            out = json.load(fh)
        out["mode"] = mode
        return out

    def cycles(self, cycle: list, seconds: float, min_cycles: int) -> list:
        """Samples of repeated cycles of worker modes, until the next cycle
        would end after `seconds`; at least min_cycles cycles run."""
        out, t0, n = [], time.perf_counter(), 0
        while True:
            out += [self.sample(mode) for mode in cycle]
            n += 1
            if all("error" in s for s in out):
                break  # nothing runs; do not spend the slot on retries
            spent = time.perf_counter() - t0
            per_cycle = spent / n
            if n >= min_cycles and (spent + per_cycle > seconds
                                    or self.elapsed() + per_cycle > LAST_START_S):
                break
        return out


def check_runs(bench: Bench, runs: list) -> list:
    """Failure reasons per dispatch sample: gate, exit status, determinism."""
    ref_fits = ref_sizes = ref_counts = None
    verdicts = []
    for s in runs:
        bad = []
        if "error" in s:
            bad.append(s["error"])
        elif s["rc"] != 0:
            bad.append(f"dispatch exit status {s['rc']}")
        else:
            with open(os.path.join(s["rundir"], "fits.json"), "rb") as fh:
                raw = fh.read()
            bad += bench.gate(json.loads(raw), bench.cfg)
            sizes = deterministic_sizes(s["files"])
            ref_fits = raw if ref_fits is None else ref_fits
            ref_sizes = sizes if ref_sizes is None else ref_sizes
            if raw != ref_fits:
                bad.append("fits.json differs from the first run")
            if sizes != ref_sizes:
                bad.append("result file sizes differ from the first run")
            if s["mode"] == "trace":
                counts = {k: s["layers"][k] for k in EXACT_COUNTS}
                ref_counts = counts if ref_counts is None else ref_counts
                if counts != ref_counts:
                    bad.append("work counts differ from the first traced run")
        verdicts.append(bad)
    return verdicts


def deterministic_sizes(files: dict) -> dict:
    """File sizes that must repeat exactly: all but JSON sidecars that may carry
    timings (trajectory.json holds the run's wall time)."""
    return {k: v for k, v in files.items()
            if not k.endswith(".json") or os.path.basename(k) in ("fits.json", "config.json")}


def median_of(samples: list, key: str) -> float:
    return statistics.median(s[key] for s in samples)


# ---------------------------------------------------------------------------
# report

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="relaxlab benchmark (one workload per call)")
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "relaxlab", "cli.py")):
        print(f"error: no relaxlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bench = Bench(args.workload, args.seed)
    try:
        return report(bench, args)
    finally:
        shutil.rmtree(OUT, ignore_errors=True)


def report(bench: Bench, args) -> int:
    facts = machine_facts()
    ref_before = ref_loop_ms()
    bench.sample("setup")  # warm-up: byte-compiles relaxlab and fills the page cache
    if args.trace:
        samples = bench.cycles(TRACED_CYCLE, args.seconds, MIN_TRACED_CYCLES)
        kern = bench.sample("kernels")
    else:
        samples = bench.cycles(UNTRACED_CYCLE, args.seconds, MIN_UNTRACED_CYCLES)
    ref_after = ref_loop_ms()
    runs = [s for s in samples if s["mode"] != "setup"]
    verdicts = check_runs(bench, runs)
    done = [s for s in runs if "error" not in s]
    setups = [s for s in samples if "error" not in s]
    errors = sorted({s["error"] for s in samples if "error" in s})
    if not done:
        print("error: no run completed: " + "; ".join(errors), file=sys.stderr)
        return 1
    failed = sum(1 for v in verdicts if v)
    first = done[0]
    facts.update(numpy=first["numpy"], fft_backend=first["fft_backend"],
                 state_bytes=workloads.state_bytes(bench.cfg),
                 ref_loop_ms_before=ref_before, ref_loop_ms_after=ref_after)

    print(f"relaxlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(f"runs: attempted={len(runs)} failed={failed} fail_frac={failed / len(runs):.4g} (ratio)")
    for i, v in enumerate(verdicts):
        if v:
            print(f"  run {i + 1} FAILED: " + "; ".join(v))
    for e in errors:
        print(f"  error: {e}")
    counts = {"result_bytes": sum(deterministic_sizes(first["files"]).values()),
              "result_bytes_all": sum(first["files"].values()),
              "fits_json_bytes": first["files"].get("fits.json", 0)}

    if args.trace:
        metrics = traced_metrics(done, kern, counts)
        metrics["host.ref_loop.ms"] = (ref_before + ref_after) / 2
    else:
        metrics = {
            "wall_s": median_of(done, "wall_s"),
            "setup_s": median_of(setups, "setup_s"),
            "peak_rss_mb": median_of(done, "peak_rss_mb"),
        }
        for key, group in (("wall_s", done), ("setup_s", setups), ("peak_rss_mb", done)):
            print(f"samples: {key} n={len(group)}: " + " ".join(f"{s[key]:.4f}" for s in group))
        print("counts (exact, per run): " + json.dumps(counts, sort_keys=True))
    units = {k: E2E_UNITS.get(k) or layer_unit(k) for k in metrics}
    for k, v in metrics.items():
        print(f"  {k:40s} {v:14.6g} {units[k]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def traced_metrics(done: list, kern: dict, counts: dict) -> dict:
    plain = [s for s in done if s["mode"] == "run"]
    traced = [s for s in done if s["mode"] == "trace"]
    if not plain or not traced:
        raise SystemExit("error: the traced run needs at least one untraced and one traced sample")
    metrics = {k: statistics.median(s["layers"][k] for s in traced) for k in traced[0]["layers"]}
    metrics["harness.write.bytes"] = float(sum(traced[0]["files"].values()))
    metrics["cli.import_s"] = median_of(done, "import_s")
    metrics["cli.parse_s"] = median_of(done, "parse_s")
    untraced = median_of(plain, "wall_s")
    metrics["trace.overhead_frac"] = (median_of(traced, "wall_s") - untraced) / untraced
    absent = sorted(set(traced[0]["absent"]))
    if "error" in kern:
        absent.append(f"kernel table ({kern['error']})")
        metrics.update({k: 0.0 for k in kernel_metric_names()})
    else:
        metrics.update(kern["kernels"])
    counts.update({k: traced[0]["layers"][k] for k in EXACT_COUNTS})
    print(f"samples: untraced n={len(plain)}, traced n={len(traced)}")
    print("counts (exact, per run): " + json.dumps(counts, sort_keys=True))
    print("absent: " + (", ".join(absent) if absent else "none"))
    print("spans of the first traced run (name <- parent: calls, total s, self s):")
    for name, parent, calls, total, self_s in traced[0]["spans"][:20]:
        print(f"  {name} <- {parent}: {calls}, {total:.4f}, {self_s:.4f}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
