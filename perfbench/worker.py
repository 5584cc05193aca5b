"""Child process of the benchmark: one fresh Python process per role.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py run WORKLOAD --seed S --seconds T --trace 0|1 --work DIR [--smoke]

`setup` times `import qcoherence` plus one tiny call into each layer and
prints {"setup_s": ...}.  `run` does the same, then runs the workload as a
closed loop for about T seconds and prints its raw measurements as one JSON
line.  With --trace 1 the first half of the time is untraced and the second
half traced (the difference is the tracing overhead), followed by the
kernel sweep.  The parent process (run.py) sets PYTHONPATH to the
checkout's src/ and turns these measurements into metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

MIN_PASSES = 3


def setup() -> float:
    """Seconds for `import qcoherence` plus a tiny call into each layer."""
    t0 = time.perf_counter()
    import numpy as np

    import qcoherence as qc
    from qcoherence import cli
    from qcoherence.io import parse_matrix

    rho = qc.validate_density(np.eye(2) / 2)  # linalg
    s = qc.rewrite_in_basis(rho, qc.random_basis(2, 0))  # haar, measures
    qc.basis_distance(s.basis, s.basis)  # distance
    parse_matrix("1\n1\n")  # io
    qc.run_srel_demo(c_list=(1.0,))  # experiments
    cli.build_parser().parse_args(["measure", "state.txt"])  # cli
    elapsed = time.perf_counter() - t0
    src = Path("src").resolve()
    if src not in Path(qc.__file__).resolve().parents:
        raise SystemExit(f"qcoherence was imported from {qc.__file__}, not from {src}")
    return elapsed


def machine_facts() -> dict:
    """nproc, BLAS name, version and threads, library versions."""
    import ctypes

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads": None,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    # threadpoolctl is not available; ask the loaded OpenBLAS directly.
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["blas_threads"] = fn()
                break
    return facts


def _loop(workload, seconds, on_pass=None):
    """Passes until `seconds` have gone by (at least MIN_PASSES)."""
    pass_s, calls_ms, attempted, failed, messages = [], [], 0, 0, []
    deadline = time.perf_counter() + seconds
    while len(pass_s) < MIN_PASSES or time.perf_counter() < deadline:
        t, calls, tried, bad, msgs = workload.run_pass()
        pass_s.append(t)
        calls_ms += calls
        attempted += tried
        failed += bad
        messages += msgs
        if on_pass:
            on_pass()
    return pass_s, calls_ms, attempted, failed, messages


def run(args) -> dict:
    setup_s = setup()
    # Imported after set-up so that setup_s covers the first import of qcoherence.
    from sweep import run_sweep
    from tracer import Tracer, summarize
    from workloads import make_workload

    work = Path(args.work)
    workload = make_workload(args.workload, args.seed, work, args.smoke)
    result = {"setup_s": setup_s, "facts": machine_facts()}
    half = args.seconds / 2 if args.trace else args.seconds
    pass_s, calls_ms, attempted, failed, messages = _loop(workload, half)
    if args.trace:
        tracer = Tracer()
        summaries, marks = [], [0]

        def close_pass():
            summaries.append(summarize(tracer.spans[marks[-1]:], base=marks[-1]))
            marks.append(len(tracer.spans))

        tracer.install()
        try:
            traced = _loop(workload, half, close_pass)
        finally:
            tracer.uninstall()
        tracer.write(work / f"spans-{args.workload}.csv")
        layers = {k: statistics.median(s[k] for s in summaries) for k in summaries[0]}
        layers["trace.overhead_s"] = statistics.median(traced[0]) - statistics.median(pass_s)
        layers.update(run_sweep(args.seed, work, args.smoke))
        result["layers"] = layers
        result["traced_pass_s"] = traced[0]
        attempted += traced[2]
        failed += traced[3]
        messages += traced[4]
    result.update(
        pass_s=pass_s,
        calls_ms=calls_ms,
        attempted=attempted,
        failed=failed,
        failures=messages[:50],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="role", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("run")
    p.add_argument("workload")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    result = {"setup_s": setup()} if args.role == "setup" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
