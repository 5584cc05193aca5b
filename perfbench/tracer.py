"""Spans around the public functions of each qcoherence layer.

The tracer lives only in the benchmark: it replaces every public function of
a layer module, at every ``qcoherence.*`` module attribute that refers to it
(``experiments`` imports measures by name), by a wrapper that records a span.
Module-internal calls resolve names through the module globals, so they are
traced too.  Two methods are wrapped as well: ``DensityMatrix.eigensystem``
and ``HermitianObservable.from_matrix``.

A span is ``(name, layer, start, end, parent, n, status, extra)``: ``parent``
is the index of the enclosing span (-1 at top level), ``n`` the dimension
read from the first argument when it has one, ``status`` the name of the
exception the call raised (empty on success) and ``extra`` a per-function
detail (unitaries drawn for the Haar samplers, a state fingerprint for
``eigensystem``).  Spans stay in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import inspect
import sys
import time

import numpy as np

LAYERS = ("linalg", "distance", "measures", "haar", "experiments", "io", "cli")

# Haar functions that draw unitaries, with the argument that says how many
# (None: exactly one).  haar.draws_per_call divides the unitaries drawn by
# the outermost calls to these.
HAAR_SAMPLERS = {
    "sample_haar_unitaries": "count",
    "sample_haar_unitary": None,
    "random_basis": None,
    "estimate_diag_square_sum": "samples",
    "estimate_expected_eta2_sq": "samples",
    "overlap_moment_check": "samples",
}

METHODS = (("linalg", "DensityMatrix", "eigensystem"), ("linalg", "HermitianObservable", "from_matrix"))


def _dim(args) -> int:
    if not args:
        return 0
    a = args[0]
    if isinstance(a, (int, np.integer)) and not isinstance(a, bool):
        return int(a)
    if isinstance(a, np.ndarray) and a.ndim == 2:
        return a.shape[0]
    d = getattr(a, "dim", None)
    return d if isinstance(d, int) else 0


def _sampler_draws(fn, param):
    if param is None:
        return lambda args, kwargs: 1
    sig = inspect.signature(fn)
    pos = list(sig.parameters).index(param)
    return lambda args, kwargs: int(kwargs[param] if param in kwargs else args[pos])


def _state_fingerprint(args, kwargs):
    return hashlib.blake2b(args[0].matrix.tobytes(), digest_size=8).hexdigest()


class Tracer:
    """Installs span-recording wrappers into qcoherence and removes them."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, layer: str, name: str, fn, extra=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            status = ""
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                status = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (
                    name, layer, start, end, parent, _dim(args), status,
                    extra(args, kwargs) if extra else "",
                )

        return traced

    def install(self) -> None:
        import qcoherence  # noqa: F401  (loads every layer module)

        modules = [m for k, m in sys.modules.items() if k == "qcoherence" or k.startswith("qcoherence.")]
        replacement = {}
        for layer in LAYERS:
            mod = sys.modules[f"qcoherence.{layer}"]
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                extra = None
                if layer == "haar" and name in HAAR_SAMPLERS:
                    extra = _sampler_draws(fn, HAAR_SAMPLERS[name])
                replacement[id(fn)] = self._wrap(layer, f"{layer}.{name}", fn, extra)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapped = replacement.get(id(value))
                if wrapped is not None:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"qcoherence.{layer}"], cls_name)
            raw = cls.__dict__[meth]
            name = f"{layer}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(layer, name, raw.__func__))
            else:
                new = self._wrap(layer, name, raw, _state_fingerprint)
            self._undo.append((cls, meth, raw))
            setattr(cls, meth, new)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("name", "layer", "start", "end", "parent", "n", "status", "extra"))
            w.writerows(self.spans)


def summarize(spans, base: int = 0) -> dict:
    """Per-layer call counts and self time, plus the four waste ratios.

    `spans` is a slice of a trace that starts at index `base` with no span
    open, so every parent index in it is -1 or at least `base`.
    """
    spans = [s[:4] + (s[4] - base if s[4] >= 0 else -1,) + s[5:] for s in spans]
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, int] = {}
    for i, (name, layer, start, end, *_rest) in enumerate(spans):
        calls[layer] += 1
        self_s[layer] += (end - start) - child[i]
        by_name[name] = by_name.get(name, 0) + 1

    def is_sampler(i):
        name = spans[i][0]
        return name.startswith("haar.") and name[5:] in HAAR_SAMPLERS

    draws = outer = 0
    for i, span in enumerate(spans):
        if not is_sampler(i):
            continue
        p = span[4]
        while p >= 0 and not is_sampler(p):
            p = spans[p][4]
        if p < 0:
            outer += 1
            draws += span[7]

    lower = [s for s in spans if s[0] == "distance.commutator_lower_bound"]
    states = {s[7] for s in spans if s[0] == "linalg.DensityMatrix.eigensystem"}

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["measures.offdiag_per_state"] = ratio(
        by_name.get("measures.off_diagonal_part", 0), by_name.get("measures.rewrite_in_basis", 0)
    )
    out["linalg.eigh_per_state"] = ratio(by_name.get("linalg.DensityMatrix.eigensystem", 0), len(states))
    out["haar.draws_per_call"] = ratio(draws, outer)
    out["distance.lower_skipped_ratio"] = ratio(
        sum(1 for s in lower if s[6] == "DegenerateSpectrumError"), len(lower)
    )
    return out
