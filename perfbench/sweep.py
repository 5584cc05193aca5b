"""Kernel sweep: microseconds per call of public functions at each dimension.

Inputs come from the workload seed and are built outside the timed calls.
Each kernel is timed in blocks of repeated calls after one warm-up call; the
reported value is the median block's time per call, divided by the number
of unitaries or samples for the batched Haar functions.
"""

from __future__ import annotations

import statistics
import time
from pathlib import Path

import numpy as np

import qcoherence as qc
from qcoherence.io import parse_matrix
from qcoherence.measures import adversarial_subspaces
from workloads import format_matrix, make_state, make_unitary

SWEEP_NS = ((4, 8, 16, 32, 64), (4, 8))  # (full run, smoke run)
KERNEL_BUDGET_S = (0.04, 0.002)
BATCH = 64  # unitaries per batched call and samples per estimate
REPORT_ROWS = 500
MIN_BLOCKS = 3


def time_per_call(fn, budget):
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    inner = max(1, int(budget / 8 / max(first, 1e-7)))
    blocks = []
    deadline = time.perf_counter() + budget
    while len(blocks) < MIN_BLOCKS or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        blocks.append((time.perf_counter() - t0) / inner)
    return statistics.median(blocks)


def _hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (g + g.conj().T) / 2.0


def kernels(n, rng):
    """(metric name, call, items per call) for one dimension."""
    rho = qc.validate_density(make_state(rng, n))
    basis = qc.OrthonormalBasis(make_unitary(rng, n))
    other = qc.OrthonormalBasis(make_unitary(rng, n))
    s = qc.rewrite_in_basis(rho, basis)
    f = qc.Subspace(make_unitary(rng, n)[:, : max(1, n // 2)])
    h = _hermitian(rng, n)
    a = qc.HermitianObservable.from_matrix(_hermitian(rng, n))
    b = qc.HermitianObservable.from_matrix(_hermitian(rng, n))
    raw_state = rho.matrix.copy()
    text = format_matrix(raw_state)
    g = np.random.default_rng(rng.integers(2**32))
    return [
        ("haar.sample_haar_unitaries", lambda: qc.sample_haar_unitaries(n, BATCH, g), BATCH),
        ("haar.sample_haar_unitary", lambda: qc.sample_haar_unitary(n, g), 1),
        ("haar.estimate_diag_square_sum", lambda: qc.estimate_diag_square_sum(rho, BATCH, g), BATCH),
        ("measures.rewrite_in_basis", lambda: qc.rewrite_in_basis(rho, basis), 1),
        ("measures.eta1", lambda: qc.eta1(s), 1),
        ("measures.eta2", lambda: qc.eta2(s), 1),
        ("measures.eta_inf", lambda: qc.eta_inf(s), 1),
        ("measures.delta", lambda: qc.delta(s), 1),
        ("measures.s_rel", lambda: qc.s_rel(s, 1.0), 1),
        ("measures.tpf_deviation", lambda: qc.tpf_deviation(s, f), 1),
        ("measures.adversarial_subspaces", lambda: adversarial_subspaces(s), 1),
        ("linalg.hermitian_eigendecomposition", lambda: qc.hermitian_eigendecomposition(h), 1),
        ("linalg.validate_density", lambda: qc.validate_density(raw_state), 1),
        ("linalg.HermitianObservable.from_matrix", lambda: qc.HermitianObservable.from_matrix(h), 1),
        ("distance.basis_distance", lambda: qc.basis_distance(basis, other), 1),
        ("distance.commutator_upper_bound", lambda: qc.commutator_upper_bound(a, b), 1),
        ("distance.commutator_lower_bound", lambda: qc.commutator_lower_bound(a, b), 1),
        ("io.parse_matrix", lambda: parse_matrix(text), 1),
    ]


def run_sweep(seed, workdir, smoke=False):
    """Every `<layer>.<function>.n<N>.us` metric plus the report row costs."""
    budget = KERNEL_BUDGET_S[1 if smoke else 0]
    out = {}
    for n in SWEEP_NS[1 if smoke else 0]:
        rng = np.random.default_rng([seed, 99, n])
        for name, fn, items in kernels(n, rng):
            out[f"{name}.n{n}.us"] = time_per_call(fn, budget) / items * 1e6

    rng = np.random.default_rng([seed, 98])
    columns = ["n", "a", "b", "c", "d", "e", "f", "ok"]
    rows = [dict(zip(columns, map(float, r))) for r in rng.standard_normal((REPORT_ROWS, len(columns)))]
    report = qc.ExperimentReport.from_rows("sweep", {"rows": REPORT_ROWS}, rows, seed)
    path = Path(workdir) / "sweep-report.csv"
    out["experiments.write_report.us_per_row"] = (
        time_per_call(lambda: qc.write_report(report, path), budget * 4) / REPORT_ROWS * 1e6
    )
    out["experiments.load_report.us_per_row"] = (
        time_per_call(lambda: qc.load_report(path), budget * 4) / REPORT_ROWS * 1e6
    )
    if qc.load_report(path).rows != rows:
        raise RuntimeError("load_report does not return the rows write_report wrote")
    return out
