"""What the benchmark in perfbench/ uses of the program: its set-up calls, the
kernels its sweep times, the functions its tracer wraps and the reports and
outputs its workloads check.  A rename or a report change that would break
the benchmark fails here, at tier 1."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import qcoherence.measures

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_worker_setup_runs(monkeypatch):
    # setup() checks that qcoherence comes from ./src, so run it from the repo root
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.chdir(PERFBENCH.parent)
    import worker

    assert worker.setup() > 0.0


@pytest.mark.parametrize("name", ["cli", "purity", "prop31"])
def test_smoke_pass_has_no_failures(monkeypatch, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    seconds, calls_ms, attempted, failed, messages = (
        workloads.make_workload(name, 1, tmp_path, smoke=True).run_pass()
    )
    assert attempted >= 1 and (failed, messages) == (0, [])


def test_sweep_kernels_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import sweep

    for name, fn, items in sweep.kernels(4, np.random.default_rng(0)):
        fn()
        assert items >= 1, name


def test_traced_theorem42_smoke_pass_has_no_failures(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    original = qcoherence.measures.worst_deviations
    t = tracer.Tracer()
    t.install()
    try:
        assert qcoherence.measures.worst_deviations is not original
        seconds, calls_ms, attempted, failed, messages = (
            workloads.make_workload("theorem42", 1, tmp_path, smoke=True).run_pass()
        )
    finally:
        t.uninstall()
    assert qcoherence.measures.worst_deviations is original
    assert (attempted, failed, messages) == (1, 0, [])
    layers = tracer.summarize(t.spans)
    assert layers["experiments.calls"] > 0 and layers["measures.calls"] > 0


def _resolves(module: str, name: str) -> bool:
    """Whether `from <module> import <name>` succeeds: an attribute or a submodule."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_name_perfbench_takes_from_the_package_resolves():
    # read from the source text, so the parts of perfbench that the tests
    # above do not run (run_sweep's report round trip, say) are covered too
    uses = []
    for path in sorted(PERFBENCH.glob("*.py")):
        text = path.read_text()
        uses += [(path.name, "qcoherence", name) for name in re.findall(r"\bqc\.(\w+)", text)]
        for module, names in re.findall(r"^\s*from (qcoherence(?:\.\w+)*) import ([\w, ]+)$", text, re.M):
            uses += [(path.name, module, name.split(" as ")[0].strip()) for name in names.split(",")]
    assert {name for _, _, name in uses} >= {"write_report", "load_report", "adversarial_subspaces"}
    missing = [f"{file}: {module}.{name}" for file, module, name in uses
               if not _resolves(module, name)]
    assert missing == []
