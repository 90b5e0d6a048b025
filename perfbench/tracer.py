"""Spans and counters recorded from outside the program.

The traced run replaces public functions of ``magnon_gk`` modules with
wrappers for the duration of a traced pass.  A wrapper opens a span (name,
start, end, parent, operation id) around the call and, for some entry
points, adds to counters computed from the arguments or the result.  The
program's own modules look those attributes up at call time, so calls made
inside the package are seen too; a name bound by ``from .x import f`` in
another module is replaced as well.

An entry point that no longer exists is recorded as missing and simply
produces no spans: the traced run keeps going and its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext

PKG = "magnon_gk"


class NullTracer:
    """Interface of :class:`Tracer` that records nothing (untraced passes)."""

    op = None

    def span(self, name):
        return nullcontext()


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, operation id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- spans ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> float:
        end = time.perf_counter()
        self.spans[idx][2] = end
        self._stack.pop()
        return end - self.spans[idx][1]

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ---------------------------------------------------------

    def _wrapper(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(idx)
            if counter is not None:
                try:
                    counter(tracer.counts, args, kwargs, out, dur)
                except (TypeError, IndexError, KeyError, AttributeError,
                        ValueError, OSError):
                    # the entry point changed shape; keep the span, drop
                    # the count and say so
                    tracer._note_missing(f"{name}:counter")
            return out

        return traced

    def _note_missing(self, what: str):
        if what not in self.missing:
            self.missing.append(what)

    def install(self, entries):
        """Wrap every ``(span name, "module:Attr[.method]", counter)``."""
        pkg_modules = [m for k, m in list(sys.modules.items())
                       if m is not None and (k == PKG
                                             or k.startswith(PKG + "."))]
        for name, target, counter in entries:
            modname, _, attr = target.partition(":")
            try:
                mod = importlib.import_module(f"{PKG}.{modname}")
                owner_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, owner_name) if owner_name else mod
                fn = getattr(owner, meth)
            except (ImportError, AttributeError):
                self._note_missing(target)
                continue
            wrapped = self._wrapper(fn, name, counter)
            if owner_name:
                # method on a class: bound through the class at call time
                self._saved.append((owner, meth, fn))
                setattr(owner, meth, wrapped)
                continue
            for m in pkg_modules + [mod]:
                for key, val in list(vars(m).items()):
                    if val is fn:
                        self._saved.append((m, key, fn))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, key, fn in reversed(self._saved):
            setattr(owner, key, fn)
        self._saved.clear()

    @contextmanager
    def installed(self, entries):
        self.install(entries)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def busy(self) -> dict[str, float]:
        """Per span name: summed duration of spans with no ancestor of the
        same name (nested calls within one layer count once)."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            p = s[3]
            while p >= 0 and self.spans[p][0] != s[0]:
                p = self.spans[p][3]
            if p < 0:
                out[s[0]] += s[2] - s[1]
        return out

    def self_by_name(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s, st in zip(self.spans, self.self_times()):
            out[s[0]] += st
        return out

    def self_under(self, name: str, ancestor: str) -> float:
        """Self time of spans called ``name`` inside a span ``ancestor``."""
        total = 0.0
        for s, st in zip(self.spans, self.self_times()):
            p = s[3]
            while p >= 0 and self.spans[p][0] != ancestor:
                p = self.spans[p][3]
            if s[0] == name and p >= 0:
                total += st
        return total

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s[0]] += 1
        return out

    def dump(self, path: str):
        """Write the spans (with self times) as JSON."""
        selfs = self.self_times()
        rows = [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "self_s": st}
                for s, st in zip(self.spans, selfs)]
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"spans": rows, "missing": self.missing}, fh)


# ---------------------------------------------------------------------------
# entry points and their counters


def _count_run_loop(c, args, kwargs, out, dur):
    # run_loop(aF, aW, bF, bW, ev_times, triples, t_end, dt_out, n_out, ...)
    events = len(args[4])
    n_out = int(args[8])
    c["kernels.run_loop.events"] += events
    c["kernels.run_loop.mode_updates"] += (events + n_out) * len(args[0])


def _count_mode_tables(c, args, kwargs, out, dur):
    c["kernels.mode_tables.bytes"] += sum(
        getattr(v, "nbytes", 0) for v in out.values())


def _count_simulate(c, args, kwargs, out, dur):
    spec = args[0].spec
    backend = kwargs.get("backend", args[4] if len(args) > 4 else None)
    # without a backend, simulate picks one as make_backend's default does
    kind = (backend.kind if backend is not None
            else "dense" if spec.charge == "alternate" else "fourier")
    track = kwargs.get("track", args[6] if len(args) > 6 else "total")
    key = f"dynamics.simulate.{kind}_{track}"
    c[key + ".events"] += out.event_count
    c[key + ".busy_s"] += dur
    c["dynamics.simulate.segments"] += out.event_count + len(out.times)


def _count_draw_events(c, args, kwargs, out, dur):
    c["dynamics.draw_events.events"] += len(out[0])


def _count_save(c, args, kwargs, out, dur):
    c["dynamics.io.bytes"] += os.path.getsize(args[1])


def _count_load(c, args, kwargs, out, dur):
    c["dynamics.io.bytes"] += os.path.getsize(args[0])


def _count_cert(c, args, kwargs, out, dur):
    c["resolvent.run_certification.cases"] += len(out["cases"])


ENTRIES = [
    ("sampling", "sampling:sample_canonical", None),
    ("sampling", "sampling:sample_microcanonical", None),
    ("dynamics.draw_events", "dynamics:draw_events", _count_draw_events),
    ("dynamics.simulate", "dynamics:simulate", _count_simulate),
    ("dynamics.simulate_current_series", "dynamics:simulate_current_series",
     None),
    ("dynamics.propagate", "dynamics:FourierBlock.propagate", None),
    ("dynamics.propagate", "dynamics:DenseEigen.propagate", None),
    ("dynamics.propagate_batch", "dynamics:FourierBlock.propagate_batch",
     None),
    ("dynamics.propagate_batch", "dynamics:DenseEigen.propagate_batch", None),
    ("dynamics.io", "dynamics:save_trajectory", _count_save),
    ("dynamics.io", "dynamics:load_trajectory", _count_load),
    ("kernels.run_loop", "_kernels:run_loop", _count_run_loop),
    ("kernels.mode_tables", "_kernels:mode_tables", _count_mode_tables),
    ("greenkubo.estimate_kappa", "greenkubo:estimate_kappa", None),
    ("greenkubo.estimate_correlation", "greenkubo:estimate_correlation",
     None),
    ("spectral.kappa_gk_closed", "spectral:kappa_gk_closed", None),
    ("spectral.fit_exponent", "spectral:fit_exponent", None),
    ("spectral.d_closed", "spectral:d_closed", None),
    ("resolvent.run_certification", "resolvent:run_certification",
     _count_cert),
    ("observables.apply_generator", "observables:apply_generator", None),
    ("lattice.checks", "lattice:total_energy", None),
    ("lattice.checks", "lattice:conserved_snapshot", None),
    ("lattice.checks", "lattice:site_energies", None),
]
