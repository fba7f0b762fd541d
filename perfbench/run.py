"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The parent process starts, one
after another, SETUP_REPEATS - 1 set-up-only children and then one workload
child, all with a fixed hash seed and single-threaded numpy.  The workload
child makes its inputs, then runs whole timed rounds until S seconds have
passed, each round with cold program caches, and checks the answers after
the timed phase.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`:

  --trace 0: wall_s (median round), setup_s (median of the set-ups, each from
             process start until the inputs are ready), peak_rss_mb;
  --trace 1: per-layer metrics from rounds run under the tracer, after
             untraced rounds for the first half of the run.

Raw results and traces are written to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("corpus_sweep", "ring_lattice", "nil_census")
SETUP_REPEATS = 3
DEADLINE_S = 170.0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--role", choices=("parent", "setup", "work"), default="parent", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
    )
    return env


def spawn(args, role: str, deadline: float) -> list:
    """Run one child to its end; its standard output lines."""
    env = child_env()
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    env["PERFBENCH_T0_NS"] = str(time.monotonic_ns())
    try:
        proc = subprocess.run(
            argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{role} child did not end within {DEADLINE_S:.0f} s of the start")
    if proc.returncode != 0:
        sys.exit(f"{role} child exited with code {proc.returncode}")
    return proc.stdout.splitlines()


def parent(args) -> int:
    if not (ROOT / "src" / "skewpbw" / "__init__.py").is_file():
        print(f"no skewpbw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS - 1):
            setups.append(json.loads(spawn(args, "setup", deadline)[-1])["setup_s"])
    lines = spawn(args, "work", deadline)
    result = json.loads(lines[-1])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    for line in lines[:-1]:
        print(line)
    OUT.mkdir(exist_ok=True)
    raw = dict(result, setup_runs_s=setups, workload=args.workload, seed=args.seed)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(raw, indent=1))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------


def setup_child(args, workdir: Path):
    t0 = int(os.environ["PERFBENCH_T0_NS"])
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    inputs = wl.setup(args.seed, workdir)
    return wl, inputs, (time.monotonic_ns() - t0) / 1e9


def timed_rounds(wl, inputs, seconds: float, started: float, tracer=None):
    """Whole rounds until `seconds` after `started`: round times, last outputs, summaries."""
    times, summaries, outputs = [], [], None
    if tracer is not None:
        tracer.install()
    try:
        while True:
            outputs = None
            gc.collect()
            t = time.perf_counter()
            outputs = wl.run(inputs)
            times.append(time.perf_counter() - t)
            summaries.append(wl.summary(outputs))
            if tracer is not None:
                tracer.end_round()
            if time.perf_counter() - started >= seconds:
                return times, outputs, summaries
    finally:
        if tracer is not None:
            tracer.uninstall()


def work_child(args, workdir: Path) -> dict:
    wl, inputs, setup_s = setup_child(args, workdir)
    gc.collect()
    started = time.perf_counter()
    if args.trace:
        from tracer import Tracer

        times, _, summaries = timed_rounds(wl, inputs, args.seconds / 2, started)
        tracer = Tracer()
        traced, outputs, more = timed_rounds(wl, inputs, args.seconds, started, tracer)
        summaries += more
        # means, like the tracer's per-round figures, so that self times fit in trace.wall_s
        metrics = tracer.report(statistics.mean(traced), statistics.mean(times))
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json", metrics)
        times += traced
    else:
        times, outputs, summaries = timed_rounds(wl, inputs, args.seconds, started)
        metrics = {
            "wall_s": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    failures = wl.check(inputs, outputs)
    if any(s != summaries[0] for s in summaries):
        failures.append("rounds gave different answers")
    if args.trace and metrics["trace.self_sum_s"][0] > metrics["trace.wall_s"][0]:
        failures.append("per-layer self times sum to more than the traced wall time")
    for msg in failures[:20]:
        print(f"check failed: {msg}")
    if hasattr(wl, "digest") and not failures:
        print(f"digest (information only): {wl.digest(outputs)}")
    print(f"rounds: {len(times)}; round times (s): {' '.join(f'{t:.3f}' for t in times)}")
    return {
        "correct": not failures,
        "attempted": wl.ops(outputs) * len(times),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "parent":
        return parent(args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.role}-", dir=OUT))
    try:
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_child(args, workdir)[2]}))
        else:
            print(json.dumps(work_child(args, workdir)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
