"""qcoherence benchmark: time to a verdict on four workloads.

    python3 perfbench/run.py --workload {theorem42,purity,prop31,cli} --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  Each run starts fresh Python processes
(perfbench/worker.py) that import qcoherence from the checkout's src/,
with BLAS left at its default thread count: several processes that only
time set-up, then one that times set-up and runs the workload as a closed
loop with one caller for T seconds.  Every output is checked; the last line
of standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  The line before it, starting with "# facts", records the
machine (nproc, BLAS and its threads, library versions), the seed and the
line count of src/.

--trace 0 reports the end-to-end metrics (every timing statistic is a
Harrell-Davis percentile estimate, see _q):
  wall_s       median seconds of one pass, first call to verdict (suites:
               one `experiment` call including its CSV write; cli: every
               call of the pass, then load_report)
  setup_s      median over fresh processes of `import qcoherence` plus one
               tiny call into each layer
  peak_rss_mb  peak resident memory of the workload process
  ok_ratio     operations that passed every check / operations attempted
  call_p50_ms, call_p90_ms
               latency of one in-process CLI invocation (for the suites
               one invocation is one pass)
--trace 1 runs untraced for half the time and traced for the other half,
then sweeps kernels at n = 4..64, and reports the per-layer metrics:
  <layer>.calls, <layer>.self_s   per pass, from spans around every public
               function of each module (see tracer.py)
  four waste ratios, trace.overhead_s (traced minus untraced wall_s) and
  <layer>.<function>.n<N>.us from the kernel sweep (see sweep.py)
Spans of the last traced run of each workload and the raw results are kept
in .perfbench_work/ in the checkout.

--smoke runs every workload at tiny sizes, untraced and traced, in a few
seconds, and exits 0 when every output checks.

BENCHMARK.json lists theorem42, purity and cli.  prop31 stays runnable here
but is left out of it: on a shared 2-vCPU VM (OpenBLAS 0.3.31, 2 threads)
its run-to-run spread of wall_s reached 0.33 of the median, more than the
0.25 bound, because its multithreaded n = 64 LAPACK calls follow the host's
load most closely.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("theorem42", "purity", "prop31", "cli")
SETUP_PROCESSES = 4  # plus the workload process's own set-up
CHILD_TIMEOUT_S = 170
WORK_DIR = ".perfbench_work"


def _child(args, env, timeout):
    """Run a worker to completion and return its last stdout line as JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int,
            smoke: bool = False, setup_processes: int = SETUP_PROCESSES) -> dict:
    """Run one workload in fresh processes; return the raw worker result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), str(HERE), env.get("PYTHONPATH")]))
    base = root / WORK_DIR
    work = base / f"{workload}-{trace}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    def remaining():
        return max(1.0, deadline - time.monotonic())

    try:
        setups = [_child(["setup"], env, remaining())["setup_s"] for _ in range(setup_processes)]
        argv = ["run", workload, "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace), "--work", str(work)] + (["--smoke"] if smoke else [])
        result = _child(argv, env, remaining())
        result["setup_samples_s"] = setups + [result["setup_s"]]
        spans = work / f"spans-{workload}.csv"
        if spans.exists():
            os.replace(spans, base / spans.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["facts"].update(seed=seed, workload=workload, trace=trace, src_lines=src_line_count(root))
    (base / f"result-{workload}-trace{trace}.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def _q(values, p):
    """Harrell-Davis estimate of the p-th percentile (p in 1..99).

    It weights every order statistic instead of interpolating two, which
    keeps medians and tails steadier for the 10 to 20 passes of a suite run.
    """
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n, q = len(x), p / 100.0
    weights = np.diff(betainc(q * (n + 1), (1.0 - q) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        out = {}
        for name, value in result["layers"].items():
            unit = ("count" if name.endswith(".calls") else "s" if name.endswith("_s")
                    else "us" if name.endswith((".us", ".us_per_row")) else "ratio")
            out[name] = {"value": value, "unit": unit}
        return out
    calls = result["calls_ms"]
    attempted = result["attempted"]
    return {
        "wall_s": {"value": _q(result["pass_s"], 50), "unit": "s"},
        "setup_s": {"value": _q(result["setup_samples_s"], 50), "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        "ok_ratio": {"value": (attempted - result["failed"]) / attempted, "unit": "ratio"},
        "call_p50_ms": {"value": _q(calls, 50), "unit": "ms"},
        "call_p90_ms": {"value": _q(calls, 90), "unit": "ms"},
    }


def summary_line(result: dict, trace: int) -> dict:
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics_of(result, trace),
    }


def smoke(root: Path) -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result = measure(root, workload, seed=1, seconds=0.2, trace=trace, smoke=True, setup_processes=0)
            line = summary_line(result, trace)
            print(f"{workload} trace={trace}: correct={line['correct']} attempted={line['attempted']} "
                  f"metrics={len(line['metrics'])} ({time.perf_counter() - t0:.1f} s)")
            for failure in result["failures"][:5]:
                print(f"  {failure}")
            ok = ok and line["correct"]
    print("smoke", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, every workload, a few seconds")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qcoherence" / "__init__.py").is_file():
        print(f"error: {root} has no src/qcoherence; run from the root of a qcoherence checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        result = measure(root, args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for failure in result["failures"][:20]:
        print(f"# failure: {failure}")
    print("# facts " + json.dumps(result["facts"], sort_keys=True))
    print(json.dumps(summary_line(result, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
