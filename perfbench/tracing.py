"""Spans around the program's public functions, installed from outside.

`Tracer.install` rebinds each traced function in every `nilbound.*` module
namespace that holds it (and each traced `Matrix` method on the class), so
calls between modules and calls inside a module are both seen. A span is
(name, start, end, parent span, case id); spans stay in memory and are
written out by `Tracer.dump`. Self time is a span's duration minus the time
covered by its child spans.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

from checker import first_bound_ceil

# (span name, module, attribute); a name may cover several attributes.
TRACED = (
    ("cli.main", "nilbound.cli", "main"),
    ("linalg.span", "nilbound.linalg", "span"),
    ("linalg.kernel_basis", "nilbound.linalg", "kernel_basis"),
    ("linalg.complement_extending", "nilbound.linalg", "complement_extending"),
    ("linalg.intersect", "nilbound.linalg", "intersect"),
    ("linalg.contains", "nilbound.linalg", "contains"),
    ("linalg.subspace_sum", "nilbound.linalg", "subspace_sum"),
    ("linalg.rref", "nilbound.linalg", "rref"),
    ("linalg.invert", "nilbound.linalg", "invert"),
    ("linalg.Matrix.matmul", "nilbound.linalg", "Matrix.__matmul__"),
    ("linalg.Matrix.commutator", "nilbound.linalg", "Matrix.commutator"),
    ("linalg.Matrix.apply", "nilbound.linalg", "Matrix.apply"),
    ("linalg.Matrix.is_nilpotent", "nilbound.linalg", "Matrix.is_nilpotent"),
    ("liealg.bracket", "nilbound.liealg", "bracket"),
    ("liealg.validate", "nilbound.liealg", "validate"),
    ("liealg.lower_central_series", "nilbound.liealg", "lower_central_series"),
    ("liealg.center", "nilbound.liealg", "center"),
    ("liealg.default_filtration", "nilbound.liealg", "default_filtration"),
    ("liealg.admissible_p0_set", "nilbound.liealg", "admissible_p0_set"),
    ("liealg.is_faithful", "nilbound.liealg", "is_faithful"),
    ("liealg.from_json", "nilbound.liealg", "algebra_from_json"),
    ("liealg.from_json", "nilbound.liealg", "representation_from_json"),
    ("liealg.validate_representation", "nilbound.liealg", "validate_representation"),
    ("bounds.lower_bound_report", "nilbound.bounds", "lower_bound_report"),
    ("bounds.solve_exact", "nilbound.bounds", "solve_exact"),
    ("bounds.is_feasible", "nilbound.bounds", "is_feasible"),
    ("decomposition.decompose", "nilbound.decomposition", "decompose"),
    ("decomposition.chain_from_representation", "nilbound.decomposition", "chain_from_representation"),
    ("decomposition.find_rank_vector", "nilbound.decomposition", "find_rank_vector"),
    ("decomposition.verify_decomposition", "nilbound.decomposition", "verify_decomposition"),
    ("decomposition.build_adapted_basis", "nilbound.decomposition", "build_adapted_basis"),
    ("decomposition.verify_block_structure", "nilbound.decomposition", "verify_block_structure"),
    ("decomposition.extract_profile", "nilbound.decomposition", "extract_profile"),
    ("families.make_family", "nilbound.families", "make_family"),
)

LAYERS = ("cli", "linalg", "liealg", "bounds", "decomposition", "families")

# Counts taken from arguments and return values by the hooks at the end.
COUNTERS = (
    "linalg.span.entries_in",
    "bounds.solve_exact.nodes",
    "bounds.solve_exact.sums_tried",
    "decomposition.split_rounds",
    "decomposition.verify_block_structure.checked",
    "decomposition.certificate_failures",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one entry per span, in opening order
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_case = array("l")
        self.case_id = -1
        self._stack: list[list] = []  # [span index, name id, child time]
        self._open_depth: dict[int, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)  # outermost spans only
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self._installed: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        nid = self._name_id(name)
        stack, depth = self._stack, self._open_depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if on_call is not None:
                args = on_call(self, args, kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_case.append(self.case_id)
            self.span_end.append(0.0)
            depth[nid] += 1
            frame = [idx, nid, 0.0]
            stack.append(frame)
            start = clock()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.span_end[idx] = end
                self.calls[name] += 1
                self.self_s[name] += dur - frame[2]
                depth[nid] -= 1
                if depth[nid] == 0:
                    self.total_s[name] += dur
                if stack:
                    stack[-1][2] += dur
            if on_return is not None:
                on_return(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, name: str, module: str, attr: str) -> None:
        """Rebind module.attr, and every nilbound.* alias of it, to a traced wrapper."""
        owner = sys.modules[module]
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
        original = getattr(owner, attr)
        traced = self.wrap(name, original, *HOOKS.get(name, (None, None)))
        targets = [owner] if isinstance(owner, type) else [
            mod for key, mod in list(sys.modules.items())
            if (key == "nilbound" or key.startswith("nilbound.")) and getattr(mod, attr, None) is original
        ]
        for target in targets:
            setattr(target, attr, traced)
            self._installed.append((target, attr, original))

    def install_all(self, names) -> None:
        for name, module, attr in TRACED:
            if name in names:
                self.install(name, module, attr)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._installed):
            setattr(target, attr, original)
        self._installed.clear()

    def layer_self_s(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)

    def dump(self, path) -> None:
        """Write every span as gzip-compressed JSON columns."""
        data = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "case"],
            "name": list(self.span_name),
            "start": list(self.span_start),
            "end": list(self.span_end),
            "parent": list(self.span_parent),
            "case": list(self.span_case),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


# Counts taken from arguments and public return values.

def _span_args(tracer, args, kwargs):
    vectors = [tuple(v) for v in args[0]] if args else [tuple(v) for v in kwargs.pop("vectors")]
    ambient = args[1] if len(args) > 1 else kwargs.get("ambient_dim")
    if ambient is None and vectors:
        ambient = len(vectors[0])
    tracer.counters["linalg.span.entries_in"] += len(vectors) * (ambient or 0)
    return (vectors,) + tuple(args[1:])


def _solve_exact_result(tracer, args, kwargs, sol):
    prob = args[0] if args else kwargs["prob"]
    start = max(2, first_bound_ceil(prob.p0, prob.n[0]))
    tracer.counters["bounds.solve_exact.nodes"] += sol.nodes_explored
    tracer.counters["bounds.solve_exact.sums_tried"] += sol.r0_min - start + 1


def _decompose_result(tracer, args, kwargs, dec):
    tracer.counters["decomposition.split_rounds"] += len(dec.vectors)


def _verify_result(tracer, args, kwargs, report):
    tracer.counters["decomposition.certificate_failures"] += len(report.failures)


def _blocks_result(tracer, args, kwargs, report):
    tracer.counters["decomposition.verify_block_structure.checked"] += report.checked
    tracer.counters["decomposition.certificate_failures"] += len(report.failures)


HOOKS = {
    "linalg.span": (_span_args, None),
    "bounds.solve_exact": (None, _solve_exact_result),
    "decomposition.decompose": (None, _decompose_result),
    "decomposition.verify_decomposition": (None, _verify_result),
    "decomposition.verify_block_structure": (None, _blocks_result),
}
