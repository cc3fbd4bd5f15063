"""Spans around the public functions of each zsl module, installed from outside.

``install`` replaces each listed function in every ``zsl.*`` namespace that
binds it (so ``from .x import f`` bindings in ``certify``, ``models`` and
``cli`` are caught too) and wraps methods and constructors on their classes.
Each wrapped call records a span (id, parent id, name, start, end) in memory;
``Tracer.dump`` writes them out once the pass is over.  A few very hot
functions are counted without a span: criterion 11 alone calls
``PresentedMonoid.element`` millions of times.

Self time is a span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

# layer -> functions recorded as spans ("Class.method" for methods)
SPANNED = {
    "atoms": ["enumerate_atoms", "brute_force_atoms", "davenport_upper_bounds",
              "elementary_davenport", "rational_elementary_decomposition"],
    "invariants": ["factorizations", "exists_length", "minimal_covers", "omega",
                   "tau", "union_of_lengths", "catenary_element", "elements_up_to"],
    "intlinalg": ["smith_normal_form", "det_bareiss"],
    "models": ["acm_report", "hnp_report", "acm_class_group", "fp_rank1_invariants",
               "monext_invariants", "monext_theta_check", "monext_catenary",
               "MonextModel.minimal_atom_covers"],
    "constructions": ["fibonacci_witness"],
}
# layer -> functions only counted
COUNTED = {
    "atoms": ["circuit_length"],
    "invariants": ["PresentedMonoid.element", "PresentedMonoid.divides"],
    "intlinalg": ["rank_over_q"],
}
# constructors summed into the one span name "ground"
GROUND_CLASSES = ["GroundSet", "Sequence", "RationalSequence"]


def _omega_name(args, kwargs) -> str:
    mode = kwargs.get("mode", args[2] if len(args) > 2 else "minimal-cover")
    return f"invariants.omega.{mode}"


# span name -> (outcome counter, function of the result it adds)
OUTCOMES = {
    "atoms.enumerate_atoms": [("atoms_out", lambda r: len(r.atoms)),
                              ("complete", lambda r: int(r.complete))],
    "invariants.factorizations": [("factorizations_out", len)],
    "invariants.exists_length": [("hits", int)],
    "invariants.minimal_covers": [("covers_out", len)],
}


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.stack: list[list[int]] = []  # [span id, ns covered by children]
        self.next_id = 0
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total ns, self ns]
        self.counts: dict[str, int] = {}

    def span(self, name, fn):
        outcomes = OUTCOMES.get(name, ()) if isinstance(name, str) else ()

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span_id = self.next_id
            self.next_id += 1
            parent = self.stack[-1][0] if self.stack else -1
            frame = [span_id, 0]
            self.stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self.stack.pop()
                duration = end - start
                if self.stack:
                    self.stack[-1][1] += duration
                self.spans.append((span_id, parent, label, start, end))
                st = self.stats.setdefault(label, [0, 0, 0])
                st[0] += 1
                st[1] += duration
                st[2] += duration - frame[1]
            for key, measure in outcomes:
                k = f"{label}.{key}"
                self.counts[k] = self.counts.get(k, 0) + measure(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"
        counts[key] = 0

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self) -> dict:
        """Aggregated calls, seconds and counters keyed by span name."""
        out = {name: {"calls": c, "total_s": t / 1e9, "self_s": s / 1e9}
               for name, (c, t, s) in self.stats.items()}
        return {"layers": out, "counts": dict(self.counts)}

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"run_id": self.run_id,
                                 "fields": ["id", "parent", "name", "start_ns", "end_ns"]}))
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")


def _rebind(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname != "zsl" and not modname.startswith("zsl."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every listed function of every zsl module in the running process."""
    import importlib

    for mod in ("zsl", "zsl.certify", "zsl.cli"):
        importlib.import_module(mod)

    def wrap(layer, dotted, make):
        module = sys.modules[f"zsl.{layer}"]
        if "." in dotted:
            cls_name, meth = dotted.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, make(f"{layer}.{dotted}", getattr(cls, meth)))
            return
        original = getattr(module, dotted)
        name = _omega_name if dotted == "omega" else f"{layer}.{dotted}"
        _rebind(original, make(name, original))

    for layer, names in SPANNED.items():
        for dotted in names:
            wrap(layer, dotted, tracer.span)
    for layer, names in COUNTED.items():
        for dotted in names:
            wrap(layer, dotted, tracer.counter)
    ground = sys.modules["zsl.ground"]
    for cls_name in GROUND_CLASSES:
        cls = getattr(ground, cls_name)
        cls.__init__ = tracer.span("ground", cls.__init__)
