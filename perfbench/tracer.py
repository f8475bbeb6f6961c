"""Span tracing of vtc from outside the package.

``Tracer.install`` replaces selected public functions of the vtc modules
(and every module-level name bound to them) with wrappers that record a
span per call: name, start, end and parent.  ``uninstall`` puts the
originals back, so untraced phases run the unmodified code.

Spans nest on a stack.  A span's self time is its duration minus the time
its child spans cover; the wrappers' own bookkeeping (sizing a linear
system, comparing arguments) is charged neither to the span nor to its
parent's self time.  Aggregates are kept per round; spans are kept in
memory for the rounds that ask for them and written out when the run ends.
"""
from __future__ import annotations

import importlib
import json
import sys
import time

PACKAGE = "vtc"

# span name -> (module, attribute) of a public function.
FUNCTIONS = {
    "report.run_pipeline": ("report", "run_pipeline"),
    "report.default_stages": ("report", "default_stages"),
    "report.emit": ("report", "emit"),
    "symplectic.check_master": ("symplectic", "check_master"),
    "symplectic.descend": ("symplectic", "descend"),
    "symplectic.hamiltonian_field": ("symplectic", "hamiltonian_field"),
    "symplectic.bracket": ("symplectic", "bracket"),
    "symplectic.brst_current": ("symplectic", "brst_current"),
    "symplectic.verify_evolution_generator":
        ("symplectic", "verify_evolution_generator"),
    "linsolve.solve_linear": ("linsolve", "solve_linear"),
    "grading.find_homogenizer": ("grading", "find_homogenizer"),
    "grading.pullback": ("grading", "pullback"),
    "grading.derived_bracket": ("grading", "derived_bracket"),
    "forms.wedge": ("forms", "wedge"),
    "forms.d": ("forms", "d"),
    "forms.delta": ("forms", "delta"),
    "forms.contract": ("forms", "contract"),
    "forms.lie": ("forms", "lie"),
    "variational.source_decompose": ("variational", "source_decompose"),
    "variational.horizontal_homotopy": ("variational", "horizontal_homotopy"),
    "variational.divergence_primitive":
        ("variational", "divergence_primitive"),
    "variational.equiv_mod_d": ("variational", "equiv_mod_d"),
    "foliation.reduce": ("foliation", "reduce"),
    "foliation.charge_density": ("foliation", "charge_density"),
    "parser.parse_expression": ("parser", "parse_expression"),
    "parser.parse_model": ("parser", "parse_model"),
    "model.form_text": ("model", "form_text"),
}

# span name -> (module, class, method).
METHODS = {
    "kernel.mul": ("kernel", "GradedScalar", "__mul__"),
    "kernel.total_derivative": ("kernel", "GradedScalar", "total_derivative"),
}

# The report's stage table; each entry becomes a span report.stage.<name>.
STAGE_TABLE = ("report", "_STAGE_FUNCS")

# Calls whose repeats within one round are counted as duplicates.
DEDUP = ("symplectic.check_master", "symplectic.descend",
         "symplectic.hamiltonian_field")


def _canon(obj):
    """A hashable value, equal for equal arguments.

    Evolutionary fields have no equality of their own, so they compare by
    their components; dataclasses compare field by field.
    """
    if hasattr(obj, "base_components") and hasattr(obj, "spectrum"):
        comps = tuple(sorted(obj.base_components().items()))
        return ("field", obj.spectrum, obj.parity, obj.ghost, comps)
    fields = getattr(obj, "__dataclass_fields__", None)
    if fields is not None:
        return (type(obj).__name__,) + tuple(
            _canon(getattr(obj, f)) for f in fields)
    if isinstance(obj, (list, tuple)):
        return tuple(_canon(o) for o in obj)
    return obj


class Round:
    """Aggregates of one round of operations."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self.seen: dict[str, set] = {}

    def count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        self.counters[key] = max(self.counters.get(key, 0), n)


class Tracer:
    def __init__(self):
        self.stack: list[list] = []
        self.round = Round()
        self.record = False
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self._next_id = 0
        self._patches: list[tuple] = []
        self._in_homogenizer = 0
        self._in_pullback = 0

    def begin_round(self, record: bool = False) -> None:
        self.round = Round()
        self.record = record

    def end_round(self) -> Round:
        self.record = False
        return self.round

    # -- installation ------------------------------------------------------

    def _module(self, name: str):
        return importlib.import_module(f"{PACKAGE}.{name}")

    def install(self) -> None:
        self.missing = []
        wrappers: dict[int, object] = {}
        for span, (mod, attr) in FUNCTIONS.items():
            fn = getattr(self._module(mod), attr, None)
            if fn is None:
                self.missing.append(span)
            else:
                wrappers[id(fn)] = self._wrap(span, fn)
        for span, (mod, cls_name, attr) in METHODS.items():
            cls = getattr(self._module(mod), cls_name, None)
            if cls is None or not hasattr(cls, attr):
                self.missing.append(span)
            else:
                self._set(cls, attr, self._wrap(span, getattr(cls, attr)))
        # Rebind every module-level name that refers to a wrapped function,
        # including names brought in with ``from ... import``.
        for key, mod in sorted(sys.modules.items()):
            if mod is None or not (key == PACKAGE
                                   or key.startswith(PACKAGE + ".")):
                continue
            for name, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._set(mod, name, wrapper)
        table = getattr(self._module(STAGE_TABLE[0]), STAGE_TABLE[1], None)
        if not isinstance(table, dict):
            self.missing.append("report.stage")
            return
        for stage, fn in list(table.items()):
            self._patches.append((table.__setitem__, stage, fn))
            table[stage] = self._wrap(f"report.stage.{stage}", fn)

    def uninstall(self) -> None:
        for restore, name, original in reversed(self._patches):
            restore(name, original)
        self._patches.clear()

    def _set(self, target, name: str, value) -> None:
        original = getattr(target, name)
        self._patches.append(
            (lambda n, v, t=target: setattr(t, n, v), name, original))
        setattr(target, name, value)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, span: str, fn):
        tracer = self
        clock = time.perf_counter
        stack = self.stack
        pre = {"linsolve.solve_linear": self._size_system,
               "grading.find_homogenizer": self._enter_homogenizer,
               "grading.pullback": self._enter_pullback}.get(span)
        post = {"linsolve.solve_linear": self._solved,
                "forms.lie": self._lie_done,
                "grading.find_homogenizer": self._leave_homogenizer,
                "grading.pullback": self._leave_pullback}.get(span)
        if span in DEDUP:
            post = self._dedup_hook(span)

        def wrapper(*args, **kwargs):
            t_in = clock()
            info = None
            if pre is not None:
                args, info = pre(args)
            tracer._next_id += 1
            frame = [tracer._next_id, 0.0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                rnd = tracer.round
                dur = t1 - t0
                rnd.calls[span] = rnd.calls.get(span, 0) + 1
                rnd.self_s[span] = rnd.self_s.get(span, 0.0) + dur - frame[1]
                rnd.incl_s[span] = rnd.incl_s.get(span, 0.0) + dur
                if tracer.record:
                    parent = stack[-1][0] if stack else None
                    tracer.spans.append((frame[0], parent, span, t0, t1, info))
                if post is not None:
                    post(args, result)
                if stack:
                    stack[-1][1] += clock() - t_in

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-layer hooks ---------------------------------------------------

    def _size_system(self, args):
        equations, *rest = args
        equations = list(equations)
        cols: set = set()
        nnz = 0
        for coeffs, _ in equations:
            for c, v in coeffs.items():
                if v:
                    cols.add(c)
                    nnz += 1
        rnd = self.round
        key = "linsolve.solve_linear."
        rnd.count(key + "rows", len(equations))
        rnd.count(key + "cols", len(cols))
        rnd.count(key + "nnz", nnz)
        rnd.peak(key + "max_rows", len(equations))
        rnd.peak(key + "max_cols", len(cols))
        rnd.peak(key + "max_nnz", nnz)
        info = {"rows": len(equations), "cols": len(cols), "nnz": nnz}
        return (equations, *rest), info

    def _solved(self, args, result) -> None:
        if result is None:
            self.round.count("linsolve.solve_linear.inconsistent")

    def _lie_done(self, args, result) -> None:
        # Candidate images: Lie derivatives taken by the homogenizer search
        # itself, not inside the pullback series it also runs.
        if self._in_homogenizer and not self._in_pullback:
            self.round.count("grading.candidates")
            if result is not None and not result.is_zero():
                self.round.count("grading.candidates_nonzero")

    def _enter_homogenizer(self, args):
        self._in_homogenizer += 1
        return args, None

    def _leave_homogenizer(self, args, result) -> None:
        self._in_homogenizer -= 1

    def _enter_pullback(self, args):
        self._in_pullback += 1
        return args, None

    def _leave_pullback(self, args, result) -> None:
        self._in_pullback -= 1

    def _dedup_hook(self, span: str):
        def post(args, result) -> None:
            key = _canon(args)
            seen = self.round.seen.setdefault(span, set())
            if key in seen:
                self.round.count(f"{span}.dup_calls")
            else:
                seen.add(key)
        return post

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write the recorded spans as JSON lines; times are seconds from
        the first span's start.  Returns the number written."""
        spans = sorted(self.spans, key=lambda s: s[3])
        base = spans[0][3] if spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, info in spans:
                rec = {"id": sid, "parent": parent, "name": name,
                       "start": round(t0 - base, 9), "end": round(t1 - base, 9)}
                if info:
                    rec.update(info)
                fh.write(json.dumps(rec) + "\n")
        return len(spans)
