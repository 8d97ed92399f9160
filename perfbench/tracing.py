"""Span tracing around cspbench's public functions, from outside the program.

Every traced function is replaced at each module attribute bound to it:
its home module, the `from .structures import ...` copies in the other
modules, and the package's re-exports.  Calls through module globals (for
instance `cnf_sat` calling `conj_sat` inside linear_horn) therefore pass
through the wrapper too.  `uninstall` puts every original back.

A span is (function, start, end, parent span, job).  Spans are kept in
flat arrays while the run lasts and written out once at the end.
"""

from __future__ import annotations

import sys
import time
from array import array

from cspbench.structures import BudgetExceededError

# module -> traced public functions
LAYERS = {
    "structures": ("power", "one_tolerant_power", "find_homomorphism",
                   "enumerate_homomorphisms", "canonical_form"),
    "formulas": ("evaluate", "canonical_structure", "eliminate_disjunctions", "parse_sentence"),
    "clones": ("enumerate_polymorphisms", "is_core", "is_essentially_unary"),
    "galois": ("is_pp_definable", "synthesize_pp_definition", "relation_of_formula",
               "count_maximal_pp_types", "pp_type_leq"),
    "duality": ("has_one_tolerant_polymorphism", "critical_obstructions"),
    "linear_horn": ("conj_sat", "cnf_sat", "make_irreducible", "horn_solve", "parse_cnf"),
    "cli": ("main",),
}


def _is_found(result) -> bool:
    return result is not None


def _first_true(result) -> bool:
    return bool(result[0])


# "<module>.<function>" -> (ratio kind, predicate on the return value)
RATIOS = {
    "structures.find_homomorphism": ("found_frac", _is_found),
    "galois.is_pp_definable": ("definable_frac", _first_true),
    "duality.has_one_tolerant_polymorphism": ("found_frac", _is_found),
    "linear_horn.conj_sat": ("sat_frac", _is_found),
    "linear_horn.cnf_sat": ("sat_frac", _is_found),
}
# "<module>.<function>" -> kind that sums len(return value)
SIZES = {
    "structures.enumerate_homomorphisms": "maps",
    "clones.enumerate_polymorphisms": "results",
    "duality.critical_obstructions": "results",
}
BUDGET_ERRORS = ("structures.find_homomorphism", "structures.enumerate_homomorphisms")


class Tracer:
    def __init__(self):
        self.names = [f"{m}.{f}" for m, fns in LAYERS.items() for f in fns]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = []
        self.job = -1
        self.hits = [0] * len(self.names)  # ratio numerators
        self.sizes = [0] * len(self.names)
        self.budget_errors = [0] * len(self.names)
        self._patches = self._find_patches()

    def _wrap(self, name, fn):
        nid = self.name_id[name]
        ratio = RATIOS.get(name, (None, None))[1]
        sized = name in SIZES
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.span_job.append(tracer.job)
            tracer.span_end.append(0.0)
            tracer.stack.append(idx)
            tracer.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BudgetExceededError:
                tracer.budget_errors[nid] += 1
                raise
            finally:
                tracer.span_end[idx] = time.perf_counter()
                tracer.stack.pop()
            if ratio is not None and ratio(result):
                tracer.hits[nid] += 1
            if sized:
                tracer.sizes[nid] += len(result)
            return result

        return traced

    def _find_patches(self):
        """(module, attribute, original, wrapper) for every binding of every
        traced function in the cspbench package."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "cspbench" or key.startswith("cspbench."))]
        patches = []
        for name in self.names:
            module, fname = name.split(".")
            original = getattr(sys.modules[f"cspbench.{module}"], fname)
            wrapper = self._wrap(name, original)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is original:
                        patches.append((m, attr, original, wrapper))
        return patches

    def install(self):
        for m, attr, _, wrapper in self._patches:
            setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, original, _ in self._patches:
            setattr(m, attr, original)

    def layer_metrics(self) -> dict:
        """calls, self_s and the extra kinds for every traced function."""
        count = len(self.names)
        calls = [0] * count
        total = [0.0] * count
        child = [0.0] * len(self.span_name)
        for i in range(len(self.span_name) - 1, -1, -1):
            # children always come after their parent, so walking backwards
            # finishes every child before its parent is read
            dur = self.span_end[i] - self.span_start[i]
            nid = self.span_name[i]
            calls[nid] += 1
            total[nid] += dur - child[i]
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (calls[nid], "count")
            out[f"{name}.self_s"] = (total[nid], "s")
            if name in RATIOS:
                kind = RATIOS[name][0]
                out[f"{name}.{kind}"] = (self.hits[nid] / calls[nid] if calls[nid] else 0.0, "ratio")
            if name in SIZES:
                out[f"{name}.{SIZES[name]}"] = (self.sizes[nid], "count")
            if name in BUDGET_ERRORS:
                out[f"{name}.budget_errors"] = (self.budget_errors[nid], "count")
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_s\tend_s\tparent\tjob\n")
            for i in range(len(self.span_name)):
                fh.write(f"{self.names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                         f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_job[i]}\n")
