"""Outside-in tracer: spans around the public calls of each dgcat module.

The tracer wraps functions and methods from outside the program; dgcat
itself is not changed.  A span records its name, start, end and parent and
stays in memory until the run ends.  A layer's self time is its span's
duration minus the part of that interval covered by its child spans.

Module functions are rebound in every loaded dgcat module that holds the
same object (``from .x import y`` copies the binding), so internal calls
such as sodgen's use of ``is_ho_iso`` do not escape their spans.  Methods
are replaced on their class.  ``uninstall`` puts every original object back.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


def tc_key(x):
    """Canonical content key of a twisted complex: its terms and twist."""
    terms = tuple((t.obj.label, t.obj.index, t.shift) for t in x.terms)
    q = tuple(sorted((i, j, m.degree, tuple(sorted(m.coords.items()))) for (i, j), m in x.q.items()))
    return terms, q


# (layer name, owner, attribute, extra) -- owner is a module path for module
# functions and "module:Class" for methods.  extra names the Tracer method
# _extra_<name>(args, result) whose value is summed into <layer>.<name>.
SPANS = (
    ("exactlin.elim", "dgcat.exactlin:Matrix", "rank", "nnz"),
    ("exactlin.elim", "dgcat.exactlin:Matrix", "solve", "nnz"),
    ("exactlin.elim", "dgcat.exactlin:Matrix", "nullspace", "nnz"),
    ("exactlin.cohomology", "dgcat.exactlin:ChainComplex", "cohomology", None),
    ("exactlin.cohomology", "dgcat.exactlin:ChainComplex", "cohomology_dim", None),
    ("exactlin.snf", "dgcat.exactlin", "smith_normal_form", None),
    ("exactlin.snf", "dgcat.exactlin", "in_rowspan", None),
    ("dgcore.from_quiver", "dgcat.dgcore", "from_quiver", None),
    ("dgcore.validate", "dgcat.dgcore:DGCategory", "validate", None),
    ("dgcore.tensor", "dgcat.dgcore", "tensor", None),
    ("pretr.homspace", "dgcat.pretr:HomSpace", "__init__", "distinct"),
    ("pretr.contractible", "dgcat.pretr", "is_contractible", None),
    ("pretr.contractible", "dgcat.pretr", "is_ho_iso", None),
    ("sodgen.check_sod", "dgcat.sodgen", "check_sod", "obligations"),
    ("sodgen.verify_generation", "dgcat.sodgen", "verify_generation", None),
    ("ptring.saturate", "dgcat.ptring:Ledger", "saturated_rows", "rows"),
    ("ptring.normalize", "dgcat.ptring:Ledger", "normalize", None),
    ("ptring.eq", "dgcat.ptring:Ledger", "eq", None),
    ("schema.parse", "dgcat.schema", "parse_document", "bytes"),
    ("schema.dump", "dgcat.schema", "dumps", None),
    ("functors.check_qe", "dgcat.functors", "check_quasi_equiv", None),
    ("functors.serre", "dgcat.functors", "verify_serre", None),
    ("cli.main", "dgcat.cli", "main", None),
)

# Called too often for a span each; only counted.
COUNTS = (("dgcore.mul", "dgcat.dgcore:DGCategory", "mul"),)


def _resolve(owner):
    mod, _, cls = owner.partition(":")
    obj = importlib.import_module(mod)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans = []
        self.counts = {}  # layer metric name -> running total
        self._saved = []  # (holder, attribute, original)
        self._job_keys = set()
        self._job_cats = []  # keeps categories alive so their ids stay unique
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack = []
        self._lock = threading.Lock()

    # -- per-layer extras ---------------------------------------------------

    def _extra_nnz(self, args, result):
        return len(args[0].entries)

    def _extra_distinct(self, args, result):
        # HomSpace(x, y) is keyed per category by the canonical content of
        # both ends; distinct keys are counted per job (see end_job).
        _, x, y = args
        self._job_cats.append(x.cat)
        self._job_keys.add((id(x.cat), tc_key(x), tc_key(y)))
        return None

    def _extra_obligations(self, args, result):
        return len(result.audit)

    def _extra_rows(self, args, result):
        return len(result[1])

    def _extra_bytes(self, args, result):
        return len(args[0])

    def _add(self, name, value):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + value

    def end_job(self):
        """Close the distinct-HomSpace window at a job boundary."""
        self._add("pretr.homspace.distinct", len(self._job_keys))
        self._job_keys.clear()
        self._job_cats.clear()

    # -- wrapping -----------------------------------------------------------

    def _stack(self):
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A worker thread started by dgcat itself: its spans belong to the
        # span that was open on the main thread when the work was handed off.
        if threading.get_ident() != self._main and self._main_stack:
            return self._main_stack[-1]
        return -1

    def _span_wrapper(self, name, fn, extra):
        spans = self.spans
        clock = time.perf_counter
        extra_fn = getattr(self, f"_extra_{extra}") if extra else None
        extra_name = f"{name}.{extra}"

        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            with self._lock:
                idx = len(spans)
                spans.append(Span(name, clock(), 0.0, parent))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx].end = clock()
            if extra_fn is not None:
                value = extra_fn(args, result)
                if value is not None:
                    self._add(extra_name, value)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            self._add(name, 1)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, wrapped_by):
        holder = _resolve(owner)
        if isinstance(holder, type):
            original = holder.__dict__[attr]
            self._saved.append((holder, attr, original))
            setattr(holder, attr, wrapped_by(original))
            return
        original = getattr(holder, attr)
        wrapped = wrapped_by(original)
        for mod_name, mod in sorted(sys.modules.items()):
            if mod is None or not (mod_name == "dgcat" or mod_name.startswith("dgcat.")):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, name, original))
                    setattr(mod, name, wrapped)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        # Load every traced module first, so that each one's copies of the
        # module functions exist when they are rebound.
        for _, owner, *_ in SPANS + COUNTS:
            _resolve(owner)
        try:
            for name, owner, attr, extra in SPANS:
                self._patch(owner, attr, lambda fn, n=name, e=extra: self._span_wrapper(n, fn, e))
            for name, owner, attr in COUNTS:
                self._patch(owner, attr, lambda fn, n=name: self._count_wrapper(n, fn))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._saved:
            holder, attr, original = self._saved.pop()
            setattr(holder, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def wrapped_targets(self):
        """(holder, attribute, original) for every attribute currently patched."""
        return list(self._saved)

    # -- aggregation --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the union of child intervals."""
        children = {}
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                children.setdefault(s.parent, []).append(i)
        out = []
        for i, s in enumerate(self.spans):
            covered = 0.0
            lo = hi = None
            for c in sorted(children.get(i, ()), key=lambda k: self.spans[k].start):
                a = max(self.spans[c].start, s.start)
                b = min(self.spans[c].end, s.end)
                if b <= a:
                    continue
                if hi is None or a > hi:
                    if hi is not None:
                        covered += hi - lo
                    lo, hi = a, b
                else:
                    hi = max(hi, b)
            if hi is not None:
                covered += hi - lo
            out.append(max(0.0, (s.end - s.start) - covered))
        return out

    def layer_metrics(self):
        """Run totals: <layer>.calls and <layer>.self_s for every wrapped
        layer (0 when never called), the counted extras, and
        pretr.homspace.builds / distinct / distinct_ratio."""
        m = {}
        for name, *_ in SPANS:
            m[f"{name}.calls"] = 0
            m[f"{name}.self_s"] = 0.0
        for name, *_ in COUNTS:
            m[f"{name}.calls"] = 0
        for name, _, _, extra in SPANS:
            if extra:
                m[f"{name}.{extra}"] = 0
        for s, st in zip(self.spans, self.self_times()):
            m[f"{s.name}.calls"] += 1
            m[f"{s.name}.self_s"] += st
        for name, value in self.counts.items():
            m[name if name.count(".") == 2 else f"{name}.calls"] = value
        m["pretr.homspace.builds"] = m.pop("pretr.homspace.calls")
        m["sodgen.obligations"] = m.pop("sodgen.check_sod.obligations")
        builds = m["pretr.homspace.builds"]
        m["pretr.homspace.distinct_ratio"] = m["pretr.homspace.distinct"] / builds if builds else 0.0
        return m
