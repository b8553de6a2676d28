"""gkmkit benchmark: seeded workloads of real gkmkit jobs, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; gkmkit is imported from ``src/``.  One
process and one client: each job starts after the previous one ended.
A *sweep* is one pass over the workload's fixed job list; the run repeats
sweeps for ``--seconds`` and checks every output against the benchmark's
own expectation, outside the timed interval.  Each sweep starts after a
full garbage collection, also untimed, so that collections fall at the
same points of every sweep.

End-to-end metrics (``--trace 0``):

* ``sweep_s_p50``: median wall time of one sweep;
* ``sweep_s_tail``: the sweep time with exactly ten sweeps above it, the
  highest percentile that has ten samples beyond it (which percentile and
  the sample count are printed);
* ``large_job_ms``: median over sweeps of the latency of the jobs at the
  top of the workload's size ladders, summed per sweep;
* ``small_job_ms``: median over sweeps of the mean latency of the
  catalog-sized jobs;
* ``setup_s``: import of gkmkit, input generation, file writing and one
  warm-up sweep, done five times; the median;
* ``peak_rss_mb``: peak resident memory of this process.

Failed jobs (wrong exit code or output, or an exception) are counted
against attempted jobs and named; ``fail_ratio`` is printed per workload.

``--trace 1`` alternates untraced and traced sweeps for ``--seconds``
and reports per-layer numbers per traced sweep (see ``tracing``): counts
from the first traced sweep, which must repeat exactly in every traced
sweep, and median times.  It also reports the tracing overhead and the
cold start of ``python -m gkmkit.cli`` in fresh subprocesses, and writes
the spans of the first traced sweep to ``.perfbench/``.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  ``workloads.HELD_OUT_SEED`` is reserved for confirming claims.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import selftest
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPS = 5
TAIL_BEYOND = 10
COLD_START_RUNS = 10

E2E_UNITS = {"sweep_s_p50": "s", "sweep_s_tail": "s", "large_job_ms": "ms",
             "small_job_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def fresh_import():
    """Import gkmkit from scratch; return the package and the seconds taken."""
    for name in [m for m in sys.modules if m == "gkmkit" or m.startswith("gkmkit.")]:
        del sys.modules[name]
    t0 = perf_counter()
    gk = importlib.import_module("gkmkit")
    importlib.import_module("gkmkit.cli")
    return gk, perf_counter() - t0


def run_jobs(jobs, run=None):
    """One sweep: (wall seconds, per-job seconds, per-job outcomes)."""
    lat, outs = [], []
    gc.collect()
    t0 = perf_counter()
    for job in jobs:
        s = perf_counter()
        try:
            out = job.run() if run is None else run(job.name, job.run)
        except Exception as exc:  # a raising job is a failed job, not a failed run
            out = exc
        lat.append(perf_counter() - s)
        outs.append(out)
    return perf_counter() - t0, lat, outs


def check(job, out) -> str | None:
    if isinstance(out, Exception):
        return "raised " + "".join(traceback.format_exception_only(out)).strip()
    if job.checked is not None and out == job.checked:
        return None
    try:
        reason = job.check(out)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        reason = f"malformed output: {exc!r}"
    if reason is None:
        job.checked = out
    return reason


class Tally:
    """Attempted and failed jobs, with the reason each failing job gave first."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, str] = {}

    def add(self, jobs, outs) -> None:
        for job, out in zip(jobs, outs):
            self.attempted += 1
            reason = check(job, out)
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(job.name, reason)


def setup(workload: str, seed: int, directory: Path):
    """SETUP_REPS complete set-ups; the last one's package and jobs are kept."""
    times, imports = [], []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        gk, import_s = fresh_import()
        jobs = workloads.build(gk, workload, seed, str(directory))
        run_jobs(jobs)
        times.append(perf_counter() - t0)
        imports.append(import_s)
    return gk, jobs, statistics.median(times), statistics.median(imports)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the sample with exactly TAIL_BEYOND samples above."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[-TAIL_BEYOND - 1], 100.0 * (len(ordered) - TAIL_BEYOND) / len(ordered)


def measure(jobs, seconds: float, tally: Tally) -> dict:
    sweeps, large, small = [], [], []
    is_large = [j.group == "large" for j in jobs]
    is_small = [j.group == "small" for j in jobs]
    deadline = perf_counter() + seconds
    while True:
        wall, lat, outs = run_jobs(jobs)
        sweeps.append(wall)
        large.append(sum(t for t, f in zip(lat, is_large) if f))
        small.append(statistics.fmean([t for t, f in zip(lat, is_small) if f]))
        tally.add(jobs, outs)
        if perf_counter() >= deadline:
            break
    tail_s, pct = tail(sweeps)
    return {"sweep_s_p50": statistics.median(sweeps), "sweep_s_tail": tail_s,
            "large_job_ms": statistics.median(large) * 1000,
            "small_job_ms": statistics.median(small) * 1000,
            "_tail_pct": pct, "_sweeps": len(sweeps)}


def measure_traced(gk, jobs, seconds: float, tally: Tally, spans_path: Path) -> dict:
    """Alternate untraced and traced sweeps; per-layer numbers per traced sweep."""
    tracer = tracing.Tracer(gk)
    plain, traced, snaps = [], [], []
    deadline = perf_counter() + seconds
    while True:
        wall, _lat, outs = run_jobs(jobs)
        plain.append(wall)
        tally.add(jobs, outs)
        tracer.reset(keep_spans=not snaps)
        tracer.install()
        try:
            wall, _lat, outs = run_jobs(jobs, tracer.run_job)
        finally:
            tracer.uninstall()
        traced.append(wall)
        snaps.append(tracer.snapshot())
        tally.add(jobs, outs)
        if len(snaps) == 1:
            first_spans = tracer.spans
        if perf_counter() >= deadline:
            break
    write_spans(first_spans, spans_path)
    first = snaps[0]
    unsteady = sorted(k for k in first if not k.endswith("_ms")
                      and any(s[k] != first[k] for s in snaps))
    out = {}
    for key in first:
        if key.endswith("_ms"):
            out[key] = statistics.median(s[key] for s in snaps)
        else:
            out[key] = first[key]
    out["matching.fill_ratio"] = (out["matching.matched"] / out["matching.left_size"]
                                  if out["matching.left_size"] else 0.0)
    calls = out["weights.poly_div_linear.calls"]
    out["weights.cancel_success_ratio"] = (
        out["weights.poly_div_linear.nonnull"] / calls if calls else 0.0)
    out["untraced_sweep_ms"] = statistics.median(plain) * 1000
    out["traced_sweep_ms"] = statistics.median(traced) * 1000
    out["trace_overhead_pct"] = (out["traced_sweep_ms"] / out["untraced_sweep_ms"] - 1) * 100
    out["_unsteady"] = unsteady
    out["_sweeps"] = len(traced)
    return out


def write_spans(spans, path: Path) -> None:
    if not spans:
        return
    origin = min(s[4] for s in spans)
    with open(path, "w", encoding="utf-8") as fh:
        for job, sid, parent, name, t0, t1, failed in spans:
            fh.write(json.dumps({"job": job, "id": sid, "parent": parent, "name": name,
                                 "start_ms": (t0 - origin) * 1000,
                                 "dur_ms": (t1 - t0) * 1000, "failed": failed}) + "\n")


def cold_start_ms(path: str) -> float:
    """Median wall time of `python -m gkmkit.cli chern FILE` in fresh processes."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(COLD_START_RUNS):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "gkmkit.cli", "chern", path],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(perf_counter() - t0)
        if proc.returncode != 0 or "c1^3 = 64" not in proc.stdout:
            raise RuntimeError(f"cold start run failed: exit {proc.returncode}")
    return statistics.median(times) * 1000


def traced_setup_cpn(gk, workload: str, seed: int, directory: Path) -> dict:
    """catalog.cpn calls and time inside one input generation."""
    tracer = tracing.Tracer(gk)
    tracer.install()
    try:
        workloads.build(gk, workload, seed, str(directory))
    finally:
        tracer.uninstall()
    snap = tracer.snapshot()
    return {"setup.cpn_calls": snap["catalog.cpn.calls"],
            "setup.cpn_ms": snap["catalog.cpn.total_ms"]}


def meta() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "cpu": cpu, "nproc": os.cpu_count()}


def git_sha() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    return "count"


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "gkmkit" / "__init__.py").is_file():
        print(f"error: gkmkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    directory = OUT / f"{workload}-{seed}-{os.getpid()}"
    problems = [f"checker self-test: {line}" for line in selftest.run_selftest()]
    try:
        gk, jobs, setup_s, import_s = setup(workload, seed, directory)
        tally = Tally()
        print("meta " + json.dumps(dict(meta(), workload=workload, seed=seed,
                                        seconds=seconds, trace=int(trace), jobs=len(jobs))))
        if trace:
            spans_path = OUT / f"spans-{workload}-{seed}.jsonl"
            m = measure_traced(gk, jobs, seconds, tally, spans_path)
            m.update(traced_setup_cpn(gk, workload, seed, directory))
            m["import_ms"] = import_s * 1000
            cat_cp3 = directory / "cold_cp3.json"
            cat_cp3.write_text(json.dumps(workloads.entry_doc(gk.catalog.cpn(3))))
            m["cli.cold_start_ms"] = cold_start_ms(str(cat_cp3))
            if m["_unsteady"]:
                problems.append(f"counts differ between traced sweeps: {m['_unsteady']}")
            print(f"traced sweeps {m['_sweeps']}, spans in {spans_path.relative_to(ROOT)}")
            for layer, effect in tracing.LAYER_EFFECTS.items():
                print(f"layer map: {layer} -> {effect}")
            metrics = {k: {"value": v, "unit": unit_of(k)}
                       for k, v in m.items() if not k.startswith("_")}
        else:
            m = measure(jobs, seconds, tally)
            m["setup_s"] = setup_s
            m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {k: {"value": m[k], "unit": u} for k, u in E2E_UNITS.items()}
            beyond = min(TAIL_BEYOND, m["_sweeps"] - 1)
            print(f"sweep_s_tail is p{m['_tail_pct']:.1f} of {m['_sweeps']} sweeps "
                  f"({beyond} beyond it)")
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    for line in problems:
        print(line)
    for name, value in metrics.items():
        print(f"{workload} {name} = {value['value']:.6g} {value['unit']}")
    print(f"{workload} fail_ratio = {tally.failed}/{tally.attempted} = "
          f"{tally.failed / tally.attempted:.6g}")
    for name, reason in sorted(tally.reasons.items()):
        print(f"failed job: {name}: {reason}")
    print(json.dumps({"correct": tally.failed == 0 and not problems,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
