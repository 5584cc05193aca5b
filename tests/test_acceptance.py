"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest -s` to see them inline).

Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np
import pytest

from qcoherence import (
    DELTA,
    ETA1,
    ETA2,
    ETA_INF,
    OrthonormalBasis,
    SeededGenerator,
    Subspace,
    basis_distance,
    check_axiom1,
    commutator_lower_bound,
    commutator_upper_bound,
    approach_path,
    estimate_diag_square_sum,
    fourier_basis,
    jensen_gap_bound,
    overlap_moment_check,
    quadratic_jensen_gap,
    random_basis,
    rewrite_in_basis,
    srel_counterexample,
    srel_family_state,
    s_rel,
    tpf_deviation,
)
from qcoherence.cli import main as cli_main
from qcoherence.experiments import check_subspace_bound, random_density_matrix, random_hermitian


def _line(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    return ok


def test_criterion_01_haar_moment_oracle():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for n in (2, 4, 8):
        for k, l in ((min(1, n - 1), min(1, n - 1)), (0, 1)):
            check = overlap_moment_check(n, 0, k, l, 100_000, SeededGenerator(100 + n + k + l))
            worst = max(worst, abs(check.z_score))
            ok = ok and check.agrees
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    assert _line(1, ok, f"overlap moments within 4 s.e. (worst |z| = {worst:.2f}, {elapsed:.0f}s)")


def test_criterion_02_exact_diagonal_anchor():
    start = time.monotonic()
    root = SeededGenerator(200)
    worst = 0.0
    for block, n in enumerate((4, 8, 16, 32)):
        rng = root.substream(block)
        for _ in range(20):
            rho = random_density_matrix(n, rng)
            est = estimate_diag_square_sum(rho, 2000, rng)
            exact = (np.vdot(rho.matrix, rho.matrix).real + 1.0) / (n + 1.0)
            worst = max(worst, abs(est.z_score(exact)))
    elapsed = time.monotonic() - start
    ok = worst <= 4.0 and elapsed < 180.0
    assert _line(2, ok, f"sum rho_ii^2 anchor within 4 sigma (worst |z| = {worst:.2f}, {elapsed:.0f}s)")


def test_criterion_03_convergence_sweep():
    root = SeededGenerator(300)
    means, worst = [], 0.0
    for block, n in enumerate((4, 8, 16, 32, 64)):
        rng = root.substream(block)
        rho = random_density_matrix(n, rng, rank=1)  # |eta2^2 - 1| = sum rho_ii^2
        est = estimate_diag_square_sum(rho, 2000, rng)
        worst = max(worst, abs(est.z_score(2.0 / (n + 1.0))))
        means.append(est.mean)
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    ok = decreasing and worst <= 4.0
    assert _line(3, ok, f"pure-state deviation strictly decreasing, 2/(n+1) within 4 sigma "
                        f"(worst |z| = {worst:.2f}, means {['%.4f' % m for m in means]})")


def test_criterion_04_axiom2_zero_violations():
    start = time.monotonic()
    root = SeededGenerator(400)
    dims = list(range(2, 17))
    per_dim = -(-10_000 // len(dims))  # ceil: at least 10^4 triples overall
    min_slack = np.inf
    for block, n in enumerate(dims):
        # trials 1..per_dim: Wishart (rho, B) pairs, each checked as
        # measure >= ||Q||_op (every F at once), drawn chunk by chunk from
        # block's keys
        bound = check_subspace_bound(n, range(1, per_dim + 1), root, block)
        min_slack = min([min_slack] + [slack for slack, *_ in bound.values()])
    elapsed = time.monotonic() - start
    ok = min_slack >= -1e-10 and elapsed < 120.0
    assert _line(4, ok, f"{per_dim * len(dims)} (rho, B) pairs, one ||Q||_op check per pair "
                        f"(every F), 4 measures, min slack {min_slack:.2e} (>= -1e-10, {elapsed:.0f}s)")


def test_criterion_05_axiom1_decay():
    root = SeededGenerator(500)
    ts = np.geomspace(1e-1, 1e-9, 9)
    ok = True
    worst_gap = -np.inf
    for path_index in range(50):
        n = (2, 4, 8, 16)[path_index % 4]
        rng = root.substream(path_index)
        rho = random_density_matrix(n, rng)
        path = approach_path(rho.eigensystem()[1], ts, rng)
        ds, values = check_axiom1(rho, (ETA1, ETA2, ETA_INF, DELTA), path)
        e2 = values[ETA2]
        worst_gap = max(worst_gap, float((e2 - ds).max()))
        ok = ok and (e2 <= ds + 1e-12).all()
        ok = ok and ds[-1] < 1e-6
        for m in (ETA1, ETA_INF):
            vals = values[m]
            ok = ok and (np.diff(vals) < 0).all() and vals[-1] < 1e-6
        ok = ok and np.abs(values[DELTA] - ds).max() < 1e-12
        ok = ok and (np.diff(e2) < 0).all() and e2[-1] < 1e-6
    assert _line(5, ok, f"50 decay paths: eta2 <= d pointwise (worst eta2 - d = {worst_gap:.2e}), "
                        f"all measures -> 0 below 1e-6")


def test_criterion_06_srel_counterexample():
    # scalar reproduction at c = 1, eps = 0.1
    s = rewrite_in_basis(srel_family_state(0.1), OrthonormalBasis.standard(2))
    f = Subspace.from_vectors(np.array([1.0, 1.0]) / np.sqrt(2))
    dev = tpf_deviation(s, f)
    bound = s_rel(s, 1.0)
    ok = abs(dev - 0.05) < 1e-12
    ok = ok and abs(bound - 0.005008366846356804) < 1e-9
    ok = ok and dev > bound
    found_all = True
    for c in (0.1, 1.0, 10.0, 100.0):
        found = srel_counterexample(c)
        found_all = found_all and found.margin > 0 and 0 < found.epsilon <= 1
    ok = ok and found_all
    assert _line(6, ok, f"deviation 0.05 > s_rel {bound:.6f} at eps = 0.1; "
                        f"violating eps found for c in {{0.1, 1, 10, 100}}")


def test_criterion_07_commutator_bounds():
    root = SeededGenerator(700)
    worst_upper, worst_lower = np.inf, np.inf
    for block, n in enumerate((2, 4, 8, 16)):
        rng = root.substream(block)
        for _ in range(500):
            a, b = random_hermitian(n, rng), random_hermitian(n, rng)
            worst_upper = min(worst_upper, commutator_upper_bound(a, b).relative_slack)
            worst_lower = min(worst_lower, commutator_lower_bound(a, b).relative_slack)
    ok = worst_upper >= -1e-9 and worst_lower >= -1e-9
    assert _line(7, ok, f"500 pairs per n: min relative slack upper {worst_upper:.2e}, "
                        f"lower {worst_lower:.2e} (>= -1e-9)")


def test_criterion_08_distance_range_and_mub():
    root = SeededGenerator(800)
    ok = True
    for block, n in enumerate((2, 3, 4, 8, 16)):
        rng = root.substream(block)
        top = np.sqrt(n - 1.0)
        for _ in range(1000):
            d = basis_distance(random_basis(n, rng), random_basis(n, rng))
            ok = ok and -1e-12 <= d <= top + 1e-9
        fourier_d = basis_distance(OrthonormalBasis.standard(n), fourier_basis(n))
        ok = ok and abs(fourier_d - top) < 1e-9
    assert _line(8, ok, "10^3 random pairs per n inside [0, sqrt(n-1)]; "
                        "Fourier pairs reach sqrt(n-1) within 1e-9")


def test_criterion_09_jensen_gap_bound():
    rng = SeededGenerator(900).generator()
    ok = True
    worst_identity = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        w = rng.random(n)
        w /= w.sum()
        x = np.cumsum(0.05 + rng.random(n))
        gap = quadratic_jensen_gap(w, x)
        ok = ok and jensen_gap_bound(w, x, gap).satisfied
        pairwise = sum(
            w[i] * w[j] * (x[i] - x[j]) ** 2 for i in range(n) for j in range(i + 1, n)
        )
        worst_identity = max(worst_identity, abs(gap - pairwise))
    ok = ok and worst_identity <= 1e-10
    assert _line(9, ok, f"10^3 weighted instances satisfy the bound; "
                        f"identity defect {worst_identity:.2e} (<= 1e-10)")


def test_criterion_10_cli_determinism(tmp_path):
    runs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        rc1 = cli_main(["experiment", "srel", "--c", "0.1,1,10,100",
                        "--seed", "17", "--out", str(out)])
        rc2 = cli_main(["experiment", "purity", "--n", "4,8", "--samples", "400",
                        "--seed", "17", "--out", str(out)])
        runs.append((rc1, rc2,
                     (out / "srel.csv").read_bytes(), (out / "purity.csv").read_bytes()))
    ok = runs[0] == runs[1] and runs[0][0] == 0 and runs[0][1] == 0
    assert _line(10, ok, "repeated seeded experiment runs emit byte-identical CSVs")
