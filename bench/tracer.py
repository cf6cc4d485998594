"""In-memory span tracer for the traced benchmark run.

The tracer wraps the library's public functions from outside: every
binding of a target function -- module globals, names imported into
other modules, class attributes and their aliases such as
``FieldElem.__rmul__ = __mul__`` -- is replaced by one wrapper that
records a span (name, start, end, parent span, op id).  Spans live in
flat arrays while the pass runs and are written out afterwards; self
time is span time minus the time covered by child spans.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from contextlib import contextmanager

# (span name, module, attribute path); span names are <layer>.<fn>.
TARGETS = (
    ("numfield.mul", "numfield", "FieldElem.__mul__"),
    ("numfield.inv", "numfield", "FieldElem.inv"),
    ("numfield.add", "numfield", "FieldElem.__add__"),
    ("numfield.new", "numfield", "FieldElem.__init__"),
    ("numfield.from_json", "numfield", "FieldElem.from_json"),
    ("numfield.to_json", "numfield", "FieldElem.to_json"),
    ("matalg.matmul", "matalg", "SqMatrix.__mul__"),
    ("matalg.inv", "matalg", "SqMatrix.inv"),
    ("matalg.det", "matalg", "SqMatrix.det"),
    ("matalg.is_symplectic", "matalg", "is_symplectic"),
    ("matalg.kron", "matalg", "kron"),
    ("matalg.new", "matalg", "SqMatrix.__init__"),
    ("liegroup.rho13", "liegroup", "rho13"),
    ("liegroup.rho13_star", "liegroup", "rho13_star"),
    ("liegroup.phi", "liegroup", "phi"),
    ("liegroup.phi_star", "liegroup", "phi_star"),
    ("liegroup.s_conjugate", "liegroup", "s_conjugate"),
    ("liegroup.gl1_torus", "liegroup", "gl1_torus"),
    ("verify.run_suite", "verify", "run_suite"),
    ("f2.new", "f2", "F2Vector.__init__"),
    ("f2.pairing", "f2", "F2Vector.pairing"),
    ("f2.add", "f2", "F2Vector.__add__"),
    ("moduli.f2_image_scan", "moduli", "f2_image_scan"),
    ("moduli.classify", "moduli", "classify"),
    ("moduli.reduction_verdict", "moduli", "reduction_verdict"),
    ("moduli.sp2n_reduction_witness", "moduli", "sp2n_reduction_witness"),
    ("moduli.count_components", "moduli", "count_components"),
    ("moduli.fiber_geometry", "moduli", "fiber_geometry"),
    ("higgs.stability_report", "higgs", "stability_report"),
    ("higgs.sw_invariants", "higgs", "sw_invariants"),
    ("higgs.cayley_partner", "higgs", "cayley_partner"),
    ("higgs.gdelta_reduction_check", "higgs", "gdelta_reduction_check"),
    ("higgs.gp_reduction_check", "higgs", "gp_reduction_check"),
    ("higgs.sl2xsl2_reduction_check", "higgs", "sl2xsl2_reduction_check"),
    ("higgs.iso_normal_form", "higgs", "iso_normal_form"),
    ("jsonio.load_datum", "jsonio", "load_datum"),
    ("jsonio.datum_from_json", "jsonio", "datum_from_json"),
    ("jsonio.datum_to_json", "jsonio", "datum_to_json"),
    ("cli.main", "cli", "main"),
)

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name, _, _ in TARGETS))

_FIELDS = (("name", "H"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


class Tracer:
    """Records nested spans; ``op`` is the id stamped on new spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.op = -1
        self._stack = [-1]
        self._undo: list = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def record(self, name: str, start: float, end: float, parent: int = -1,
               op: int = -1) -> int:
        """Append a finished span directly; returns its index."""
        self.name.append(self._name_id(name))
        self.start.append(start)
        self.end.append(end)
        self.parent.append(parent)
        self.span_op.append(op)
        return len(self.start) - 1

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        clock, stack = self.clock, self._stack
        names, starts, ends, parents, ops = (
            self.name, self.start, self.end, self.parent, self.span_op)
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            starts.append(clock())
            ends.append(0.0)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.op)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                ends[idx] = clock()

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    @contextmanager
    def installed(self, package):
        """Wrap every binding of each target in the package's loaded
        modules, and restore them on exit."""
        wrappers = {}
        for name, modname, path in TARGETS:
            owner = getattr(package, modname)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
            fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
            wrappers[id(fn)] = (fn, self.wrap(name, fn))
        scope = [m for n, m in sorted(sys.modules.items())
                 if n == package.__name__ or n.startswith(package.__name__ + ".")]
        try:
            for mod in scope:
                self._patch_namespace(mod, wrappers)
                for obj in list(vars(mod).values()):
                    if isinstance(obj, type) and obj.__module__ == mod.__name__:
                        self._patch_namespace(obj, wrappers)
            yield self
        finally:
            while self._undo:
                owner, attr, value = self._undo.pop()
                setattr(owner, attr, value)

    def _patch_namespace(self, owner, wrappers):
        for attr, value in list(vars(owner).items()):
            kind = type(value) if isinstance(value, (classmethod, staticmethod)) else None
            fn = value.__func__ if kind else value
            hit = wrappers.get(id(fn))
            if hit is None or hit[0] is not fn:
                continue
            setattr(owner, attr, kind(hit[1]) if kind else hit[1])
            self._undo.append((owner, attr, value))

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus the durations of its children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        out = list(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= dur[i]
        return out

    def summary(self) -> dict:
        """{name: (calls, self seconds)} and the time covered by root spans."""
        selfs = self.self_times()
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        covered = 0.0
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            self_s[nid] += selfs[i]
            if self.parent[i] < 0:
                covered += self.end[i] - self.start[i]
        by_name = {n: (calls[k], self_s[k]) for k, n in enumerate(self.names)}
        return {"by_name": by_name, "covered": covered}

    def count_children(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose direct parent is a ``parent`` span."""
        if child not in self.names or parent not in self.names:
            return 0
        c, p = self.names.index(child), self.names.index(parent)
        return sum(1 for i, nid in enumerate(self.name)
                   if nid == c and self.parent[i] >= 0
                   and self.name[self.parent[i]] == p)

    # -- persistence -------------------------------------------------------------

    def dump(self, path: str):
        """Write the spans as raw arrays plus an index, one file per field."""
        os.makedirs(path, exist_ok=True)
        arrays = dict(zip((f for f, _ in _FIELDS),
                          (self.name, self.start, self.end, self.parent, self.span_op)))
        for field, arr in arrays.items():
            with open(os.path.join(path, field + ".bin"), "wb") as fh:
                arr.tofile(fh)
        with open(os.path.join(path, "index.json"), "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "fields": dict(_FIELDS)}, fh, indent=1)

    @classmethod
    def load(cls, path: str) -> "Tracer":
        with open(os.path.join(path, "index.json"), encoding="utf-8") as fh:
            index = json.load(fh)
        t = cls()
        t.names = index["names"]
        n = index["spans"]
        for field, code in _FIELDS:
            arr = array(code)
            with open(os.path.join(path, field + ".bin"), "rb") as fh:
                arr.fromfile(fh, n)
            setattr(t, "span_op" if field == "op" else field, arr)
        return t
