"""Span tracing of the engine's layers, installed from outside ``src/``.

``Tracer.installed()`` wraps the functions and methods defined in each
``rsthl`` module and puts the wrappers in place of every binding a caller
looks up: the defining module, each module that imported the name, and
the class attribute for methods.  Leaving the context restores the
originals, so untraced runs in the same process pay nothing.

Each wrapped call is a span (id, parent id, request, name, start, end).
A layer's self time is the sum over its spans of duration minus the part
covered by child spans.  Scalar operations run about a hundred thousand
times per request, so they add to counters and self time but are not
kept as individual spans; every other span is kept in memory and written
out by ``write_spans``.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# The modules of the engine, one layer each.
LAYERS = ("cli", "model", "suite", "builtin", "liegeom", "structure",
          "lightlike", "associated", "tensors", "scalars", "report")

# Scalar operations and the op class each counts as.
SCALAR_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "sub",
              "__rsub__": "sub", "__mul__": "mul", "__rmul__": "mul",
              "__truediv__": "div", "__rtruediv__": "div", "__neg__": "neg",
              "__pow__": "pow"}
# Special methods that do work worth attributing to their layer.
TRACED_DUNDERS = {"__init__", "__post_init__", "__add__", "__sub__",
                  "__neg__", "__call__"} | set(SCALAR_OPS)
# Private suite functions traced because they delimit stages and steps.
SUITE_PRIVATE = {"_ambient_stage", "_submanifold_stage", "_theorem_stage"}
# Bareiss elimination and the solvers built on it.
SOLVERS = ("tensors.solve_unique", "tensors.solve_affine",
           "tensors.matrix_inverse", "tensors.determinant")


def _is_zero(value) -> bool:
    num = getattr(value, "num", None)
    if num is not None:
        return not num
    return isinstance(value, (int, Fraction)) and value == 0


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.request = 0
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._depth: Counter = Counter()
        self._next_id = 1
        self._patches: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, keep_span: bool, observe=None):
        stack, spans = self._stack, self.spans
        calls, depth = self.calls, self._depth
        inclusive, self_time = self.inclusive, self.self_time

        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_time[layer] += dur - frame[1]
                calls[name] += 1
                depth[name] -= 1
                if not depth[name]:
                    inclusive[name] += dur
                if keep_span:
                    spans.append((sid, parent, self.request, name, t0, t1))
            if observe is not None:
                observe(args, result)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def _observer(self, name: str):
        """The counter hook for the traced function ``name``, if it has one."""
        counts = self.counts
        layer, _, attr = name.rpartition(".")
        if layer == "scalars.RationalFunction" and attr == "__init__":
            def built(args, _):
                value = args[0]
                if not value.num:
                    counts["scalars.built_zero"] += 1
                elif len(value.num) == 1 and len(value.den) == 1:
                    counts["scalars.built_const"] += 1
                else:
                    counts["scalars.built_mu"] += 1
            return built
        if layer == "scalars.RationalFunction" and attr in SCALAR_OPS:
            kind = SCALAR_OPS[attr]

            def op(args, _):
                counts["scalars.ops"] += 1
                counts[f"scalars.op.{kind}"] += 1
                if kind in ("add", "sub", "mul"):
                    counts["scalars.addmul"] += 1
                    if any(_is_zero(a) for a in args):
                        counts["scalars.addmul_zero_operand"] += 1
            return op
        if name == "tensors.MultilinearForm.__post_init__":
            def table(args, _):
                entries = args[0].entries
                counts["tensors.table_entries"] += len(entries)
                counts["tensors.zero_entries"] += sum(1 for e in entries if not e.num)
            return table
        if layer == "suite" and attr in SUITE_PRIVATE:
            def stage(_, result):
                counts["suite.entries_built"] += len(result.entries)
            return stage
        if name == "suite.run_suite":
            def reported(_, result):
                counts["suite.entries_reported"] += len(result.entries)
            return reported
        return None

    def _traced_members(self, mod, layer: str):
        """(owner, attribute, raw object, function, display name) to wrap."""
        path = getattr(mod, "__file__", None)

        def own(fn):
            code = getattr(fn, "__code__", None)
            return code is not None and code.co_filename == path

        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and own(obj) and (
                    not attr.startswith("_") or attr in SUITE_PRIVATE):
                yield mod, attr, obj, obj, f"{layer}.{attr}"
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__ and (
                    not attr.startswith("_") or attr == "_Stage"):
                for mname, member in list(vars(obj).items()):
                    if mname.startswith("__"):
                        if mname not in TRACED_DUNDERS:
                            continue
                    elif mname.startswith("_") and not (
                            layer == "suite" and mname == "run"):
                        continue
                    fn = getattr(member, "__func__", member)
                    if inspect.isfunction(fn) and own(fn):
                        yield obj, mname, member, fn, f"{layer}.{obj.__name__}.{mname}"

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced binding for the duration of the block."""
        replaced = {}
        try:
            for layer in LAYERS:
                mod = importlib.import_module(f"rsthl.{layer}")
                for owner, attr, raw, fn, name in list(self._traced_members(mod, layer)):
                    wrapper = self._wrap(layer, name, fn, keep_span=layer != "scalars",
                                         observe=self._observer(name))
                    if isinstance(raw, classmethod):
                        new = classmethod(wrapper)
                    elif isinstance(raw, staticmethod):
                        new = staticmethod(wrapper)
                    else:
                        new = wrapper
                        if owner is mod:
                            replaced[raw] = wrapper
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
            # rebind names that other modules imported with ``from . import``
            for modname, mod in list(sys.modules.items()):
                if modname != "rsthl" and not modname.startswith("rsthl."):
                    continue
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in replaced:
                        self._patches.append((mod, attr, obj))
                        setattr(mod, attr, replaced[obj])
            yield self
        finally:
            while self._patches:
                owner, attr, raw = self._patches.pop()
                setattr(owner, attr, raw)

    # -- results ----------------------------------------------------------

    def layer_metrics(self, requests: int) -> dict:
        """Per-layer metrics, as totals per traced request."""
        n = max(requests, 1)
        calls, incl, c = self.calls, self.inclusive, self.counts

        def per(value):
            return value / n

        def share(part, whole):
            return part / whole if whole else 0.0

        built = c["scalars.built_zero"] + c["scalars.built_const"] + c["scalars.built_mu"]
        return {
            "scalars.built": per(built),
            "scalars.built_zero_share": share(c["scalars.built_zero"], built),
            "scalars.built_const_share": share(c["scalars.built_const"], built),
            "scalars.built_mu_share": share(c["scalars.built_mu"], built),
            "scalars.ops": per(c["scalars.ops"]),
            "scalars.div_calls": per(c["scalars.op.div"]),
            "scalars.zero_operand_share": share(c["scalars.addmul_zero_operand"],
                                                c["scalars.addmul"]),
            "scalars.self_s": per(self.self_time["scalars"]),
            "tensors.value_calls": per(calls["tensors.MultilinearForm.value"]),
            "tensors.value_s": per(incl["tensors.MultilinearForm.value"]),
            "tensors.pull_slots_s": per(incl["tensors.MultilinearForm.pull_slots"]),
            "tensors.table_entries": per(c["tensors.table_entries"]),
            "tensors.zero_entry_share": share(c["tensors.zero_entries"],
                                              c["tensors.table_entries"]),
            "tensors.solve_s": per(sum(incl[s] for s in SOLVERS)),
            "tensors.self_s": per(self.self_time["tensors"]),
            "liegeom.levi_civita_calls": per(calls["liegeom.levi_civita"]),
            "liegeom.levi_civita_s": per(incl["liegeom.levi_civita"]),
            "liegeom.curvature_calls": per(calls["liegeom.curvature"]),
            "liegeom.curvature_s": per(incl["liegeom.curvature"]),
            "liegeom.lower_s": per(incl["liegeom.CurvatureTensor.lower"]),
            "liegeom.self_s": per(self.self_time["liegeom"]),
            "structure.associated_metric_calls": per(calls["structure.associated_metric"]),
            "structure.validate_acbm_s": per(incl["structure.validate_acbm"]),
            "structure.fit_curvature_pair_s": per(incl["structure.fit_curvature_pair"]),
            "structure.constant_curvature_residual_s":
                per(incl["structure.constant_curvature_residual"]),
            "structure.self_s": per(self.self_time["structure"]),
            "lightlike.build_frame_s": per(incl["lightlike.build_frame"]),
            "lightlike.gauss_weingarten_s": per(incl["lightlike.gauss_weingarten"]),
            "lightlike.covariant_derivative_calls":
                per(calls["lightlike.covariant_derivative"]),
            "lightlike.ricci_action_calls": per(calls["lightlike.ricci_action"]),
            "lightlike.phi_pairing_calls":
                per(calls["lightlike.SubmanifoldFrame.phi_pairing"]),
            "lightlike.self_s": per(self.self_time["lightlike"]),
            "associated.build_associated_s": per(incl["associated.build_associated"]),
            "associated.tilde_curvature_s": per(incl["associated.tilde_curvature"]),
            "associated.theorem_aggregate_s": per(incl["associated.theorem_aggregate"]),
            "associated.self_s": per(self.self_time["associated"]),
            "builtin.factor_signature_s": per(incl["builtin.factor_signature_entry"]),
            "suite.run_suite_s": per(incl["suite.run_suite"]),
            "suite.self_s": per(self.self_time["suite"]),
            "suite.discarded_entry_share":
                1.0 - share(c["suite.entries_reported"], c["suite.entries_built"]),
            "model.load_s": per(incl["model.load_model"]),
            "report.render_s": per(incl["report.CheckReport.render_text"]
                                   + incl["report.CheckReport.to_json"]),
        }

    def write_spans(self, path: str) -> None:
        """All kept spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for sid, parent, request, name, t0, t1 in self.spans:
                handle.write(json.dumps({"id": sid, "parent": parent,
                                         "request": request, "name": name,
                                         "start": t0, "end": t1}) + "\n")
