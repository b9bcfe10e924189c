"""graphlink benchmark: one closed-loop client driving ``glk`` in-process.

    python3 bench/run.py --workload statesum --seed 1 --seconds 15 --trace 0

Each request is a ``glk`` argv passed to ``graphlink.cli.main`` in this
process, with stdout and the exit code captured, so argument parsing,
``graph.parse`` and output rendering are on the measured path.  There is
one client and no think time; ``GLK_THREADS`` is unset, so the library
runs single-threaded.  The loop runs whole request cycles (see
``workloads``) until at least ``--seconds`` of request time and 100
requests have accumulated.  Every output is then checked against the
independent answers in ``oracle``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
loop with spans recorded around graphlink's public functions, sends each
cycle again untraced to measure the tracing overhead and, on statesum, once
more traced with ``GLK_THREADS=2`` to measure the thread pool.  It reports
the per-layer metrics.  The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REQUESTS = 100  # p90 then has at least ten samples beyond it
SETUP_RUNS = 9
SETUP_ARGV = ["-m", "graphlink.cli", "bracket", "-i", "1;+;"]
SETUP_STDOUT = "-a^-3\n"


def measure_setup() -> tuple[float, bool]:
    """Median wall time of a cold ``python -m graphlink.cli`` process, after
    one discarded run that leaves the bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("GLK_THREADS", None)
    times, ok = [], True
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *SETUP_ARGV], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        ok = ok and proc.returncode == 0 and proc.stdout == SETUP_STDOUT
        if i:
            times.append(elapsed)
    return statistics.median(times), ok


def call(cli, argv) -> tuple[object, str, float]:
    """Run one request; returns (exit code or error text, stdout, seconds)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed request, not a dead benchmark
        code = f"{type(exc).__name__}: {exc}"
    return code, out.getvalue(), time.perf_counter() - start


def run_loop(cli, cycles, seconds: float, passes=(contextlib.nullcontext,)) -> list[list[tuple]]:
    """Closed loop over whole cycles; cycle generation is outside the clock.

    Each cycle is sent once per pass, one pass after another, so slow drift
    of the host's speed hits every pass alike.  A pass is a context manager
    factory whose value is the Tracer to label spans with, or None.  The
    first pass is the measured one and decides when to stop."""
    runs: list[list[tuple]] = [[] for _ in passes]
    for cycle in cycles:
        for out, make_pass in zip(runs, passes):
            with make_pass() as tracer:
                for req in cycle:
                    if tracer is not None:
                        tracer.request = len(out)
                    out.append((req, *call(cli, req.argv)))
        if sum(r[3] for r in runs[0]) >= seconds and len(runs[0]) >= MIN_REQUESTS:
            return runs


@contextlib.contextmanager
def two_threads(tracer: tracing.Tracer, tasks: list):
    """Trace with GLK_THREADS=2 and graphlink.gf2's pool timed into ``tasks``."""
    gf2 = sys.modules["graphlink.gf2"]
    original = gf2.ThreadPoolExecutor
    gf2.ThreadPoolExecutor = tracing.timed_pool(tasks, lambda: tracer.request)
    os.environ["GLK_THREADS"] = "2"
    try:
        with tracer.installed():
            yield tracer
    finally:
        os.environ.pop("GLK_THREADS")
        gf2.ThreadPoolExecutor = original


def check(records, oracle: wl.Oracle, *others) -> list[int]:
    """Indices of failed requests: wrong exit code or stdout in the measured
    pass, or another pass whose output differs from it."""
    failed = []
    for i, (req, code, out, _) in enumerate(records):
        ok = oracle.check(req, code, out) and all(r[i][1:3] == (code, out) for r in others)
        if not ok:
            failed.append(i)
            if len(failed) <= 3:
                print(f"FAILED {' '.join(req.argv)[:200]}\n  exit={code!r} stdout={out[:200]!r}",
                      file=sys.stderr)
    return failed


def mix(records) -> list[str]:
    """Share of requests and of enumerated states per command and per input
    class."""
    total_states = sum(r[0].states for r in records) or 1
    lines = []
    for label, key in (("command", lambda req: req.command), ("input", lambda req: req.tag)):
        groups: dict[str, list[int]] = {}
        for req, *_ in records:
            entry = groups.setdefault(key(req), [0, 0])
            entry[0] += 1
            entry[1] += req.states
        lines += [f"  {label} {name:<16} {c / len(records):6.1%} of requests  "
                  f"{s / total_states:6.1%} of states" for name, (c, s) in sorted(groups.items())]
    return lines


def end_to_end(cli, args, oracle) -> tuple[list[tuple], list[int], dict]:
    setup_s, setup_ok = measure_setup()
    if not setup_ok:
        raise SystemExit(f"setup command {' '.join(SETUP_ARGV)} did not print {SETUP_STDOUT!r}")
    records, = run_loop(cli, wl.WORKLOADS[args.workload](args.seed), args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = check(records, oracle)
    lat = [r[3] for r in records]
    metrics = {
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (statistics.quantiles(lat, n=10)[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{len(lat)} latency samples, {sum(lat):.2f} s of requests")
    return records, failed, metrics


def traced(cli, args, oracle) -> tuple[list[tuple], list[int], dict]:
    tracer, pool_tracer, tasks = tracing.Tracer(), tracing.Tracer(), []
    passes = [tracer.installed, contextlib.nullcontext]
    if args.workload == "statesum":
        passes.append(lambda: two_threads(pool_tracer, tasks))
    records, plain, *pooled_run = run_loop(
        cli, wl.WORKLOADS[args.workload](args.seed), args.seconds, passes)
    layers = tracing.layer_metrics(tracer.spans)
    traced_s, plain_s = sum(r[3] for r in records), sum(r[3] for r in plain)
    layers["trace.overhead"] = traced_s / plain_s - 1
    print(f"{len(records)} requests, {len(tracer.spans)} spans; traced {traced_s:.2f} s, "
          f"untraced {plain_s:.2f} s")
    pooled = {task[0] for task in tasks}
    one, two = (tracing.busy_in(t.spans, "gf2.subset_coranks", pooled) for t in (tracer, pool_tracer))
    layers["gf2.thread_speedup"] = one / two if pooled else 0.0
    layers["gf2.pool_wait_s"] = sum((start - queued for _, queued, start, _ in tasks), 0.0)
    if pooled_run:
        print(f"GLK_THREADS=2: {len(tasks)} pool tasks in {len(pooled)} requests; their "
              f"subset_coranks took {one:.2f} s at 1 thread, {two:.2f} s at 2")
    failed = check(records, oracle, plain, *pooled_run)
    units = dict(tracing.LAYER_METRICS)
    return records, failed, {name: (layers[name], units[name]) for name, _ in tracing.LAYER_METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "graphlink" / "__init__.py").is_file():
        print(f"graphlink sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("GLK_THREADS", None)
    from graphlink import cli

    oracle = wl.Oracle()
    for warm in wl.WARMUP[args.workload]:
        call(cli, warm)
    run = traced if args.trace else end_to_end
    records, failed, metrics = run(cli, args, oracle)
    for line in mix(records):
        print(line)
    print(f"fail_ratio {len(failed) / len(records):.4f} ({len(failed)} of {len(records)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
