"""Spans around the public functions of each wavescreen module.

Nothing here edits the package: ``Tracer.install`` replaces, for the
duration of one op, the module attribute that each caller looks up with a
wrapper that records a span, and ``uninstall`` puts the originals back.
Where a caller imported a function by name, the caller's own binding is
wrapped too (``screening.log_bayes_factor``, ``nullsim.maximize_lambda_batch``,
``simharness.p_value``).
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass

import numpy as np

from wavescreen import bayes, cli, dataio, nullsim, screening, simharness, wavelet


def _n_coeffs(args, kwargs, result):
    values = np.asarray(args[0])
    axis = kwargs.get("axis", args[1] if len(args) > 1 else -1)
    return values.size // values.shape[axis]


def _n_columns(args, kwargs, result):
    y = np.asarray(args[1])
    return 1 if y.ndim == 1 else y.shape[1]


# (span name, module whose attribute is wrapped, attribute, work count or None)
TARGETS = [
    ("cli.cmd_screen", cli, "cmd_screen", None),
    ("cli.cmd_power", cli, "cmd_power", None),
    ("cli.cmd_nullsim", cli, "cmd_nullsim", None),
    ("dataio.load_cohort", dataio, "load_cohort", None),
    ("dataio.define_windows", dataio, "define_windows", lambda a, k, r: len(r)),
    ("bayes.build_design", bayes, "build_design", None),
    ("bayes.log_bayes_factor", screening, "log_bayes_factor", _n_columns),
    ("screening.screen_window", screening, "screen_window", None),
    ("screening.window_spectra", screening, "window_spectra", lambda a, k, r: a[0].n_snps),
    ("screening.maximize_lambda", screening, "maximize_lambda", None),
    ("screening.maximize_lambda_batch", nullsim, "maximize_lambda_batch", None),
    ("wavelet.interpolation_matrix", wavelet, "interpolation_matrix", None),
    ("wavelet.haar_pyramid", wavelet, "haar_pyramid", None),
    ("wavelet.pyramid_variances", wavelet, "pyramid_variances", None),
    ("wavelet.visushrink", wavelet, "visushrink", None),
    ("wavelet.quantile_transform", wavelet, "quantile_transform", _n_coeffs),
    ("wavelet.average_ranks", wavelet, "average_ranks", None),
    ("nullsim.load_or_build_null_model", nullsim, "load_or_build_null_model", None),
    ("nullsim.simulate_null", nullsim, "simulate_null", lambda a, k, r: len(r)),
    ("nullsim.save_null_model", nullsim, "save_null_model", None),
    ("nullsim.fit_gpd_tail", nullsim, "fit_gpd_tail", None),
    ("nullsim.p_value", nullsim, "p_value", None),
    ("nullsim.p_value", simharness, "p_value", None),
    ("simharness.gwas_lm_baseline", simharness, "gwas_lm_baseline", None),
    ("simharness.simulate_phenotype", simharness, "simulate_phenotype", None),
    ("simharness.plant_signal", simharness, "plant_signal", None),
]


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: str
    start: float
    end: float
    n: int | None = None
    below_one: int | None = None


class Tracer:
    """Records spans in memory; parents are tracked per thread.

    A thread that opens a span with no span of its own open (a pool worker of
    ``screen --threads``) is parented to the op's root ``cli.cmd_*`` span.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root: int | None = None
        self._op = -1
        self._saved: list[tuple[object, str, object]] = []

    def install(self, op: int) -> None:
        self._op, self._root = op, None
        for name, module, attr, count in TARGETS:
            fn = getattr(module, attr, None)
            if fn is None:  # gone from this version of the package: its metrics read 0
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, count))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, count):
        is_sim = name == "nullsim.simulate_null"
        is_root = name.startswith("cli.")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            with self._lock:
                sid = next(self._ids)
            parent = stack[-1] if stack else self._root
            if is_root:
                self._root = sid
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = Span(sid, name, parent, self._op, threading.current_thread().name, start, end)
            if count is not None:
                span.n = int(count(args, kwargs, result))
            if is_sim:  # draws below 1 are counted, never filtered
                span.below_one = int(np.count_nonzero(result < 1.0))
            with self._lock:
                self.spans.append(span)
            return result

        return wrapper


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, -math.inf
    for s, e in sorted(intervals):
        if e > reach:
            total += e - max(s, reach)
            reach = e
    return total


def op_summary(spans: list[Span]) -> dict:
    """Per-name totals for the spans of one op.

    Returns {name: {"s", "self_s", "calls", "n", "below_one", "sim_child"}}.
    ``s`` sums span durations (busy time: concurrent spans of a thread pool
    add up), ``self_s`` subtracts the time each span's children cover, and
    ``sim_child`` counts spans with a ``nullsim.simulate_null`` child.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out: dict[str, dict] = {}
    for sp in spans:
        d = out.setdefault(
            sp.name, {"s": 0.0, "self_s": 0.0, "calls": 0, "n": 0, "below_one": 0, "sim_child": 0}
        )
        dur = sp.end - sp.start
        kids = children.get(sp.id, [])
        d["sim_child"] += any(c.name == "nullsim.simulate_null" for c in kids)
        kids = [(max(c.start, sp.start), min(c.end, sp.end)) for c in kids]
        d["s"] += dur
        d["self_s"] += dur - _covered(kids)
        d["calls"] += 1
        d["n"] += sp.n or 0
        d["below_one"] += sp.below_one or 0
    return out
