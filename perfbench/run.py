#!/usr/bin/env python3
"""Host wall-time benchmark of parad: one workload per invocation.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1
                             [--corrupt-reference]

Builds the harness (perfbench/harness, linked against ../src) into .bench_build,
then runs the workload in fresh processes:
  * --trace 0: SETUP_RUNS cold processes give setup_s (their median); the
    last of them also checks the outputs against references that do not
    trust the AD under test and runs the closed loop for --seconds. Prints
    every end-to-end metric of BENCHMARK.json.
  * --trace 1: one process whose loop is split into an untraced and a traced
    half. Prints every per-layer metric of BENCHMARK.json, computed from the
    benchmark's own spans (written as a Chrome trace-event file under
    .bench_build/traces) and the library's counters, plus the tracing
    overhead.
The last line of standard output is the result as one JSON object. The exit
code is 0 only when every check passed and no gradient or request failed.

Unit tests of the reductions: python3 -m unittest discover -s perfbench/tests
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build"
BINARY = BUILD_DIR / "perfbench"
WORKLOADS = ("lulesh_omp_grad", "lulesh_mp_grad", "bude_omp_codegen", "serve_hot")
SETUP_RUNS = 7
BUILD_TIMEOUT_S = 850
SETUP_TIMEOUT_S = 60
RUN_TIMEOUT_EXTRA_S = 100

# Set-up layers: one span each in the traced process's cold set-up.
ONE_SHOT_SPANS = {
    "ir.build_ms": "ir.build",
    "passes.prepare_ms": "passes.prepare",
    "core.plan_ms": "core.plan",
    "core.grad_gen_ms": "core.grad_gen",
    "interp.lower_ms": "interp.lower",
    "codegen.compile_ms": "codegen.compile",
}
# Per-gradient layers: median over the traced loop's gradients.
PER_GRADIENT_SPANS = {
    "psim.machine_setup_ms": "psim.machine_setup",
    "psim.run_ms": "psim.run",
    "psim.readback_ms": "psim.readback",
}


class BenchError(Exception):
    pass


def run_quiet(cmd, timeout, env=None, preexec=None):
    """Runs cmd to completion (killed and reaped on timeout); returns output."""
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True, timeout=timeout, env=env, preexec_fn=preexec)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{cmd[0]} timed out after {timeout}s") from e
    except OSError as e:
        raise BenchError(f"cannot run {cmd[0]}: {e}") from e
    if p.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stdout[-4000:]}")
    return p.stdout


def build():
    """Configures once, then builds incrementally (a no-op when current)."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        run_quiet(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", str(BUILD_DIR), "-j", jobs], BUILD_TIMEOUT_S)


def child_env(workdir):
    """The user's environment minus every PARAD_* knob (the benchmark fixes
    its own configuration), with temporary files kept inside the run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PARAD_")}
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def idlest_cpu():
    """The allowed CPU that was busy least over a short window.

    Every run is pinned to it. On a small shared VM, waking a thread on
    another vCPU costs far more, and varies far more, than the work measured:
    unpinned, lulesh_mp_grad (one carrier thread per rank, one running at a
    time) took twice as long with half again the spread, and serve_hot's
    throughput spread over ten runs was 42%.
    """
    allowed = sorted(os.sched_getaffinity(0))

    def sample():
        out = {}
        with open("/proc/stat") as f:
            for line in f:
                name, *fields = line.split()
                if name.startswith("cpu") and name[3:].isdigit():
                    v = [int(x) for x in fields]
                    out[int(name[3:])] = (v[3] + v[4], sum(v))  # idle+iowait, all
        return out

    try:
        a = sample()
        time.sleep(0.25)
        b = sample()
    except (OSError, ValueError, IndexError):
        return allowed[-1]

    def idle(c):
        di, dt = b[c][0] - a[c][0], b[c][1] - a[c][1]
        return di / dt if dt > 0 else 0.0

    return max((c for c in allowed if c in a and c in b), key=idle, default=allowed[-1])


def drive(workdir, timeout, cpu, *args):
    workdir.mkdir(parents=True, exist_ok=True)
    run_quiet([str(BINARY), *args, "--workdir", str(workdir)], timeout,
              child_env(workdir), lambda: os.sched_setaffinity(0, {cpu}))
    with open(workdir / "result.json") as f:
        return json.load(f)


def git_commit():
    """HEAD of the repository this checkout is, or 'unknown' when it is not
    one (a parent directory's repository does not count)."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def source_digest():
    """sha256 over the library sources, to identify the code measured when
    there is no git commit."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def loop_summary(loop):
    """Latencies (ms) and verified completions per second of one loop."""
    starts, ends = stats.read_samples(loop["sample_files"])
    if len(ends) != loop["attempted"]:
        raise BenchError(f"{len(ends)} samples for {loop['attempted']} attempts")
    lat_ms = [(e - s) / 1e6 for s, e in zip(starts, ends)]
    ok_share = 1.0 - stats.error_frac(loop["attempted"], loop["failed"])
    return lat_ms, stats.median_rate(loop["start_ns"], ends) * ok_share


def end_to_end(res, setups):
    samples, gps = loop_summary(res["loop"])
    ordered = sorted(samples)
    p50, _ = stats.percentile(ordered, 50)
    p99, _ = stats.percentile(ordered, 99)
    tail_p, tail_v, beyond = stats.tail(samples)
    err = stats.error_frac(res["loop"]["attempted"], res["loop"]["failed"])
    metrics = {
        "setup_s": stats.median(setups),
        "grads_per_s": gps,
        "grad_p50_ms": p50,
        "grad_tail_ms": tail_v,
        "ok_frac": 1.0 - err,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} cold processes",
        "grads_per_s": f"median over {stats.RATE_GROUPS} groups of completions",
        "grad_tail_ms": f"p{tail_p:g}, {beyond} samples beyond, {len(samples)} samples;"
                        f" p99 {p99:.6g} ms",
        "ok_frac": f"error_frac {err:g} ({res['loop']['failed']} of {res['loop']['attempted']})",
    }
    return metrics, notes


def per_layer(res, trace_path):
    _, spans = stats.load_trace(trace_path)
    selfs = stats.self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def ms(ns):
        return ns / 1e6

    metrics = dict(res["counters"])
    for metric, name in ONE_SHOT_SPANS.items():
        metrics[metric] = ms(sum(s["end_ns"] - s["start_ns"] for s in by_name.get(name, [])))
    for metric, name in PER_GRADIENT_SPANS.items():
        durs = [s["end_ns"] - s["start_ns"] for s in by_name.get(name, [])]
        metrics[metric] = ms(stats.median(durs)) if durs else 0.0
    runs = by_name.get("psim.run", [])
    metrics["psim.run_self_ms"] = ms(stats.median([selfs[s["span"]] for s in runs])) if runs else 0.0
    run_ms = metrics["psim.run_ms"]
    metrics["interp.minst_per_s"] = metrics["interp.insts"] / run_ms / 1e3 if run_ms > 0 else 0.0
    _, traced_gps = loop_summary(res["loop"])
    _, untraced_gps = loop_summary(res["untraced_loop"])
    metrics["trace.overhead_grads_per_s"] = traced_gps - untraced_gps

    # Self time per span name, for the human-readable report.
    table = {}
    for s in spans:
        t = table.setdefault(s["name"], [0, 0, 0])
        t[0] += 1
        t[1] += s["end_ns"] - s["start_ns"]
        t[2] += selfs[s["span"]]
    notes = {"trace.overhead_grads_per_s":
             f"traced {traced_gps:.4g} vs untraced {untraced_gps:.4g} grads/s"}
    return metrics, notes, table


def declared(kind):
    with open(ROOT / "BENCHMARK.json") as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def run(args):
    if args.workload not in WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    units = declared("per_layer" if args.trace else "end_to_end")
    build()
    workdir = BUILD_DIR / "runs" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        common = ["--workload", args.workload, "--seed", str(args.seed)]
        cpu = idlest_cpu()
        setups = []
        if not args.trace:
            for i in range(SETUP_RUNS - 1):
                r = drive(workdir / f"setup{i}", SETUP_TIMEOUT_S, cpu, *common,
                          "--mode", "setup")
                setups.append(r["setup_s"])
        extra = ["--corrupt-reference"] if args.corrupt_reference else []
        res = drive(workdir / "main", args.seconds + RUN_TIMEOUT_EXTRA_S, cpu, *common,
                    "--mode", "run", "--seconds", str(args.seconds),
                    "--trace", "1" if args.trace else "0", *extra)
        setups.append(res["setup_s"])
        loops = [res["loop"]] + ([res["untraced_loop"]] if args.trace else [])
        attempted = sum(l["attempted"] for l in loops)
        failed = sum(l["failed"] for l in loops)
        if args.trace:
            trace_dir = BUILD_DIR / "traces"
            trace_dir.mkdir(parents=True, exist_ok=True)
            trace_path = trace_dir / f"{args.workload}-seed{args.seed}.json"
            shutil.copyfile(workdir / "main" / "trace.json", trace_path)
            metrics, notes, table = per_layer(res, trace_path)
        else:
            metrics, notes = end_to_end(res, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = sorted(set(units) - set(metrics))
    if missing and not args.trace:
        raise BenchError(f"no value for declared metrics {missing}")
    for name in missing:  # a layer this workload does not exercise
        metrics[name] = 0
        notes[name] = "not exercised by this workload"
    env = dict(res["env"], git_commit=git_commit(), src_sha256=source_digest(),
               pinned_cpu=cpu)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for c in res["checks"]:
        print(f"check {c['name']}: {'ok' if c['ok'] else 'FAILED'} ({c['detail']})")
    if args.trace:
        print(f"trace {trace_path}")
        print(f"{'span':<22}{'count':>8}{'total ms':>12}{'self ms':>12}")
        for name, (n, total, own) in sorted(table.items()):
            print(f"{name:<22}{n:>8}{total / 1e6:>12.3f}{own / 1e6:>12.3f}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:<30} {metrics[name]:>14.6g} {unit}{note}")
    correct = failed == 0 and all(c["ok"] for c in res["checks"])
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(out))
    return 0 if correct else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb every reference; the run must then fail")
    args = ap.parse_args()
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # harness and the run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return run(args)
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
