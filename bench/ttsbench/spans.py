"""Spans around lqcdlab's public calls, recorded from outside the library.

While a :class:`Tracer` is installed, the public entry points listed in
:func:`targets` are replaced by wrappers that record one span per call:
name, layer, start, end, parent span, phase (``solve-3``, ``probe``, ...)
and thread.  Nothing under ``src/`` changes; the wrappers are removed when
the ``installed()`` block exits.  Spans stay in memory until
:meth:`Tracer.write` dumps them as JSON lines.

A span opened on a rank thread of the multi-rank executor takes the span
that is open on the tracing thread as its parent.  Self time only subtracts
children on the span's own thread, so main-thread self times add up to the
wall time of the traced calls and parallel rank work is reported on top.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

MAIN = "main"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.phase: str | None = None
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._stacks: dict[int, list[int]] = defaultdict(list)

    @contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    @contextmanager
    def span(self, name: str, layer: str):
        """Record one span; yields its record so callers can attach attributes."""
        tid = threading.get_ident()
        stack = self._stacks[tid]
        if stack:
            parent = stack[-1]
        else:
            main_stack = self._stacks[self._main] if tid != self._main else []
            parent = main_stack[-1] if main_stack else None
        rec = {
            "id": next(self._ids),
            "parent": parent,
            "name": name,
            "layer": layer,
            "phase": self.phase,
            "thread": MAIN if tid == self._main else threading.current_thread().name,
        }
        stack.append(rec["id"])
        rec["t0"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["t1"] = time.perf_counter()
            stack.pop()
            self.spans.append(rec)

    def wrap(self, fn, name: str, layer: str, hook=None):
        """``fn`` recorded as a span; ``hook(args, kwargs)`` returns ``finish(result) -> attrs``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            finish = hook(args, kwargs) if hook is not None else None
            with self.span(name, layer) as rec:
                result = fn(*args, **kwargs)
                if finish is not None:
                    rec.update(finish(result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target with a traced wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name, layer, hook in targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, layer, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path, summary: dict) -> None:
        """Spans as JSON lines, followed by one ``summary`` record."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for rec in sorted(self.spans, key=lambda s: s["t0"]):
                fh.write(json.dumps(rec) + "\n")
            fh.write(json.dumps({"summary": summary}) + "\n")


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else (args[index] if len(args) > index else None)


def _apply_dirac_hook(args, kwargs):
    # apply_dirac(params, gauge, clover, psi, comm=None, ...)
    psi = _arg(args, kwargs, 3, "psi")
    routed = _arg(args, kwargs, 4, "comm") is not None
    return lambda result: {"b": psi.b, "comm": routed}


def _executor_hook(args, kwargs):
    # MultiRankExecutor.apply_dirac(self, params, gauge, clover, psi, ...)
    ex = args[0]
    posted = sum(p for p, _ in ex.commset.audit().values())

    def finish(result):
        return {
            "wait_s": sum(s.wait_seconds for s in ex.last_stats),
            "messages": sum(p for p, _ in ex.commset.audit().values()) - posted,
            "ranks": ex.grid.n_ranks,
        }

    return finish


def targets() -> list[tuple]:
    """(owner, attribute, span name, layer, hook) of every traced public call.

    Functions are patched where their callers look them up: ``gmres`` imports
    the blas kernels and ``apply_dirac`` by name, ``oddeven`` imports
    ``subtract_hops``, and ``dirac``/``halo`` go through the ``dirac`` module.
    """
    from lqcdlab import dirac, fields, gmres, halo, oddeven

    return [
        (gmres, "solve_dirac", "solve_dirac", "gmres", None),
        (gmres, "gmres_solve", "gmres_solve", "gmres", None),
        (gmres, "apply_dirac", "apply_dirac", "dirac", _apply_dirac_hook),
        (dirac, "apply_dirac", "apply_dirac", "dirac", _apply_dirac_hook),
        (dirac, "apply_self_coupling", "apply_self_coupling", "dirac", None),
        (dirac, "subtract_hops", "subtract_hops", "dirac", None),
        (oddeven, "subtract_hops", "subtract_hops", "dirac", None),
        (gmres, "block_dot", "block_dot", "blas", None),
        (gmres, "block_axpy", "block_axpy", "blas", None),
        (gmres, "block_norms", "block_norms", "blas", None),
        (gmres, "block_scale", "block_scale", "blas", None),
        (fields.CloverField, "blocks", "CloverField.blocks", "fields", None),
        (oddeven.SchurOperator, "__init__", "SchurOperator.build", "oddeven", None),
        (oddeven.SchurOperator, "apply", "SchurOperator.apply", "oddeven", None),
        (oddeven.SchurOperator, "solve_eliminated", "SchurOperator.solve_eliminated", "oddeven", None),
        (oddeven.SchurOperator, "reduce_rhs", "SchurOperator.reduce_rhs", "oddeven", None),
        (oddeven.SchurOperator, "reconstruct", "SchurOperator.reconstruct", "oddeven", None),
        (oddeven.SchurOperator, "merge", "SchurOperator.merge", "oddeven", None),
        (halo.MultiRankExecutor, "apply_dirac", "MultiRankExecutor.apply_dirac", "halo", _executor_hook),
    ]


# -- reducer ------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the durations of its same-thread children."""
    thread = {s["id"]: s["thread"] for s in spans}
    inner: dict[int, float] = defaultdict(float)
    for s in spans:
        if thread.get(s["parent"]) == s["thread"]:
            inner[s["parent"]] += s["t1"] - s["t0"]
    return {s["id"]: (s["t1"] - s["t0"]) - inner[s["id"]] for s in spans}


def layer_self_times(spans: list[dict], thread: str | None = MAIN) -> dict[str, float]:
    """Layer -> summed self time of its spans (on one thread, or all if None)."""
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if thread is None or s["thread"] == thread:
            out[s["layer"]] += own[s["id"]]
    return dict(out)
