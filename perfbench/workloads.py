"""The four benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one caller: :meth:`run_pass` makes one
pass of calls into the public API, times it, then checks every output
outside the timed region.  Passes of one run repeat the same inputs, made
from the workload seed, so every pass must also reproduce the first pass's
outputs byte for byte (the README's determinism contract).

Why these workloads:
  theorem42  default `experiment theorem42`; ~15 small numpy calls per
             (rho, B, F) triple, so call overhead in measures, distance and
             linalg dominates, with thousands of single-unitary Haar draws.
  purity     default `experiment purity`; ~95% batched Haar sampling, no
             measures or distance work.
  prop31     `experiment prop31` at n up to 64; large-n LAPACK (eigh, SVD,
             basis_distance), no measures and almost no Haar.
  cli        `measure` and `distance` on generated files in equal thirds at
             n = 4, 16, 64, plus `experiment srel` and `load_report`; the
             only workload through io parsing, the validators and dispatch.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import time
from pathlib import Path

import numpy as np

import qcoherence
from qcoherence import cli

# Per suite, for the full and the smoke run: the dimensions and the extra
# `experiment` flags.  The full theorem42 and purity runs use the defaults.
SUITES = {
    "theorem42": (((2, 4, 8, 16, 32), []), ((2, 4), ["--trials", "10"])),
    "purity": (((4, 8, 16, 32), []), ((4, 8), ["--samples", "200"])),
    "prop31": (((2, 4, 8, 16, 32, 64), ["--trials", "200"]), ((2, 4), ["--trials", "5"])),
}
# Rows each dimension must have: theorem42 has 4 measures x (one subspace
# row + 5 decay paths), purity 3 state families, prop31 4 upper-bound rows.
ROWS_PER_N = {"theorem42": ("kind", None, 24), "purity": ("family", None, 3), "prop31": ("bound", 1.0, 4)}

CLI_NS = ((4, 16, 64), (4, 8))  # (full run, smoke run)
CLI_FILES_PER_N = 4
CLI_MEASURES = ("eta1", "eta2", "eta_inf", "delta", "s_rel")
REF_RTOL = 1e-8
REF_ATOL = 1e-10


def _invoke(argv):
    """One in-process CLI call: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a failed operation, checked like a bad exit code
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def read_csv_report(path):
    """Parse a report independently of the program: (columns, rows, metadata)."""
    text = Path(path).read_text()
    data = [line for line in text.splitlines() if line and not line.startswith("#")]
    meta = {}
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
    reader = list(csv.reader(data))
    columns = reader[0] if reader else []
    rows = [dict(zip(columns, map(float, r))) for r in reader[1:]]
    return columns, rows, meta


def check_report(suite, path, seed, dims=None):
    """Every miss in a written report, as a list of messages."""
    columns, rows, meta = read_csv_report(path)
    bad = []
    if meta.get("experiment") != suite:
        bad.append(f"{suite}: experiment id {meta.get('experiment')!r}")
    if meta.get("verdict") != "pass":
        bad.append(f"{suite}: verdict {meta.get('verdict')!r}")
    if meta.get("seed") != str(seed):
        bad.append(f"{suite}: seed {meta.get('seed')!r}")
    if not rows:
        bad.append(f"{suite}: no rows")
    for i, row in enumerate(rows):
        may_be_nan = {"c", "epsilon"}
        if suite == "theorem42" and row["kind"] == 1.0:
            may_be_nan |= {"final_d", "final_value", "monotone"}
        for col in columns:
            if col not in may_be_nan and not math.isfinite(row[col]):
                bad.append(f"{suite}: row {i} {col} = {row[col]}")
        if row.get("ok") != 1.0:
            bad.append(f"{suite}: row {i} not ok")
        if "count" in row and not row["count"] > 0:
            bad.append(f"{suite}: row {i} count {row['count']}")
        if suite == "purity":
            n, p = row["n"], row["purity"]
            for col, exact in (("eta2sq_exact", (n * p - 1) / (n + 1)), ("dev_exact", (p + 1) / (n + 1))):
                if not abs(row[col] - exact) <= 1e-12:
                    bad.append(f"{suite}: row {i} {col} {row[col]} vs {exact}")
        if suite == "srel" and not abs(row["margin"] - (row["deviation"] - row["bound"])) <= 1e-12:
            bad.append(f"{suite}: row {i} margin is not deviation - bound")
    if dims is not None:
        column, value, expected = ROWS_PER_N[suite]
        if {row["n"] for row in rows} != set(map(float, dims)):
            bad.append(f"{suite}: dimensions {sorted({row['n'] for row in rows})}, expected {list(dims)}")
        for n in dims:
            count = sum(1 for r in rows if r["n"] == n and value in (None, r[column]))
            if count != expected:
                bad.append(f"{suite}: n={n} has {count} rows, expected {expected}")
    return bad


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class SuiteWorkload:
    """One `qcoherence experiment <suite>` call per pass."""

    def __init__(self, suite, seed, workdir, smoke):
        self.suite = suite
        self.seed = seed
        self.out = Path(workdir)
        self.dims, extra = SUITES[suite][1 if smoke else 0]
        if smoke or suite == "prop31":
            extra = ["--n", ",".join(map(str, self.dims)), *extra]
        self.argv = ["experiment", suite, *extra, "--seed", str(seed), "--out", str(self.out)]
        self.digest = None

    def run_pass(self):
        """(pass seconds, call latencies in ms, operations attempted,
        operations failed, failure messages)."""
        path = self.out / f"{self.suite}.csv"
        rc, stdout, stderr, seconds = _invoke(self.argv)
        bad = []
        if rc != 0:
            bad.append(f"{self.suite}: exit code {rc}: {stderr.strip()}")
        if not stdout.startswith(f"{path}: pass ("):
            bad.append(f"{self.suite}: stdout {stdout.strip()!r}")
        try:
            bad += check_report(self.suite, path, self.seed, self.dims)
            digest = _sha256(path)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return seconds, [seconds * 1e3], 1, 1, bad + [f"{self.suite}: unreadable report: {exc}"]
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            bad.append(f"{self.suite}: CSV sha256 differs from the first pass")
        return seconds, [seconds * 1e3], 1, int(bool(bad)), bad


def format_matrix(m):
    lines = [str(m.shape[0])]
    lines += [" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in m]
    return "\n".join(lines) + "\n"


def make_state(rng, n):
    """Full-rank normalized Wishart state, exactly Hermitian."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w = g @ g.conj().T
    w = (w + w.conj().T) / 2.0
    return w / np.trace(w).real


def make_unitary(rng, n):
    """Haar unitary by Ginibre QR with the phase fix (the benchmark's own copy)."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d.conj() / np.abs(d))


def _entropy(w):
    w = np.clip(w, 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum())


def _distance(u, v):
    o = np.abs(u.conj().T @ v) ** 2
    return float(np.sqrt(np.sum(o * (1.0 - o))))


def reference_measures(rho, u, c=1.0):
    """The five measures of rho in basis u, computed without qcoherence."""
    rep = u.conj().T @ rho @ u
    q = rep - np.diag(np.diag(rep))
    n = rho.shape[0]
    w, v = np.linalg.eigh(rho)
    return {
        "eta1": float(np.abs(q).sum()),
        "eta2": float(np.sqrt((np.abs(q) ** 2).sum())),
        "eta_inf": float(n * np.abs(q).max()),
        "delta": _distance(v, u),
        "s_rel": max(c * (_entropy(np.diag(rep).real) - _entropy(w)), 0.0),
    }


def _close(got, want):
    return abs(got - want) <= REF_ATOL + REF_RTOL * abs(want)


def _reject_non_finite(name):
    raise ValueError(f"non-finite value {name}")


class CliWorkload:
    """`measure` and `distance` calls on generated files, then `experiment srel`."""

    def __init__(self, seed, workdir, smoke):
        self.seed = seed
        self.out = Path(workdir)
        self.ops = []  # (argv, kind, expected)
        for n in CLI_NS[1 if smoke else 0]:
            rng = np.random.default_rng([seed, n])
            states = [make_state(rng, n) for _ in range(CLI_FILES_PER_N)]
            bases = [make_unitary(rng, n) for _ in range(CLI_FILES_PER_N)]
            paths = []
            for i, (rho, u) in enumerate(zip(states, bases)):
                sp, bp = self.out / f"state-n{n}-{i}.txt", self.out / f"basis-n{n}-{i}.txt"
                sp.write_text(format_matrix(rho))
                bp.write_text(format_matrix(u))
                paths.append((sp, bp))
            for i, (rho, u) in enumerate(zip(states, bases)):
                sp, bp = paths[i]
                bp2 = paths[(i + 1) % CLI_FILES_PER_N][1]
                u2 = bases[(i + 1) % CLI_FILES_PER_N]
                self.ops.append((
                    ["measure", str(sp), "--basis", str(bp), "--measures", ",".join(CLI_MEASURES), "--json"],
                    "measure", reference_measures(rho, u),
                ))
                self.ops.append((["distance", str(bp), str(bp2)], "distance", _distance(u, u2)))
        self.ops.append((
            ["experiment", "srel", "--seed", str(seed), "--out", str(self.out)], "srel", None,
        ))
        self.first_outputs = None

    def run_pass(self):
        t0 = time.perf_counter()
        results = [_invoke(argv) for argv, _, _ in self.ops]
        srel_path = self.out / "srel.csv"
        try:
            loaded = qcoherence.load_report(srel_path)
        except Exception as exc:  # any exception is a failed operation
            loaded = exc
        seconds = time.perf_counter() - t0

        calls_ms, per_op, outputs = [], [], []
        for (argv, kind, expected), (rc, stdout, stderr, t) in zip(self.ops, results):
            calls_ms.append(t * 1e3)
            outputs.append(stdout)
            bad = [f"exit code {rc}: {stderr.strip()}"] if rc != 0 else []
            if not bad:
                bad = self._check(kind, stdout, expected, srel_path)
            per_op.append([f"{kind} {argv[1]}: {b}" for b in bad])
        if srel_path.exists():
            outputs[-1] += _sha256(srel_path)  # the srel call wrote the CSV
        if self.first_outputs is None:
            self.first_outputs = outputs
        for msgs, now, first in zip(per_op, outputs, self.first_outputs):
            if now != first:
                msgs.append("output differs from the first pass")
        per_op.append(self._check_loaded(loaded, srel_path))
        failures = [m for msgs in per_op for m in msgs]
        return seconds, calls_ms, len(per_op), sum(1 for msgs in per_op if msgs), failures

    def _check(self, kind, stdout, expected, srel_path):
        try:
            if kind == "measure":
                got = json.loads(stdout, parse_constant=_reject_non_finite)
                if set(got) != set(CLI_MEASURES):
                    return [f"keys {sorted(got)}"]
                return [f"{k} = {got[k]!r}, expected {v!r}" for k, v in expected.items()
                        if not (isinstance(got[k], float) and _close(got[k], v))]
            if kind == "distance":
                lines = dict(line.split(" = ") for line in stdout.strip().splitlines())
                got = float(lines["distance"])
                bad = [] if math.isfinite(got) and _close(got, expected) else [f"distance {got!r}, expected {expected!r}"]
                if lines["mutually_unbiased"] != "false":
                    bad.append(f"mutually_unbiased = {lines['mutually_unbiased']}")
                return bad
            return check_report("srel", srel_path, self.seed)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"unparseable output {stdout!r}: {exc}"]

    def _check_loaded(self, loaded, path):
        if isinstance(loaded, Exception):
            return [f"load_report: {type(loaded).__name__}: {loaded}"]
        try:
            columns, rows, _ = read_csv_report(path)
        except (OSError, ValueError) as exc:
            return [f"load_report: unreadable report: {exc}"]
        if loaded.experiment_id != "srel" or not loaded.verdict or loaded.seed != self.seed:
            return ["load_report: wrong metadata"]
        if loaded.columns != columns or loaded.rows != rows:
            return ["load_report: rows differ from the file"]
        return []


def make_workload(name, seed, workdir, smoke=False):
    if name == "cli":
        return CliWorkload(seed, workdir, smoke)
    return SuiteWorkload(name, seed, workdir, smoke)
