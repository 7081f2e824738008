"""Per-layer tracing of slimfork from outside the program.

The traced pass wraps a fixed list of public functions, one span per
call. ``campaign``, ``construct``, ``cli`` and others bind these
functions with ``from .x import name``, so every binding of the original
function object in any loaded slimfork module is replaced, and restored
when the pass ends. Functions not in the list (``posets`` among them)
are measured as part of the self time of the nearest traced caller.

Spans are aggregated as they close: calls and self time per function,
calls per (function, parent function), and the time covered by
outermost spans. Self time is span time minus the time of child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

TRACED = (
    "campaign.enumerate_family",
    "campaign.verify_claims",
    "campaign.search_representation",
    "construct.insert_fork",
    "construct.rectangular_profile",
    "diagram.build_diagram",
    "diagram.is_slim",
    "diagram.is_semimodular",
    "diagram.is_graded",
    "diagram.canonical_key",
    "diagram.four_cells",
    "congruence.principal_congruence",
    "congruence.congruence_lattice",
    "congruence.ji_poset_of",
    "congruence.dual_atom_count",
    "congruence.is_prime_ideal",
    "congruence.prime_ideal_congruence",
    "congruence.lattice_isomorphic",
    "congruence.filter_candidate",
    "io.save",
    "io.load",
    "cli.main",
)

ENUMERATE = "campaign.enumerate_family"
CON_LATTICE = "congruence.congruence_lattice"
CLOSURE = "congruence.principal_congruence"


class _Span:
    __slots__ = ("name", "child_s", "closures")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        # Distinct principal congruences computed inside this span; kept
        # only for congruence_lattice spans.
        self.closures = set() if name == CON_LATTICE else None


class Tracer:
    """Span aggregates for one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.calls_under: Counter = Counter()
        self.outermost_s = 0.0
        self.classes = 0
        self.con_members = 0
        self.distinct_closures = 0
        self._stack: list[_Span] = []

    def wrap(self, name: str, fn):
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = _Span(name)
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - span.child_s
                self.calls_under[name, parent.name if parent else None] += 1
                if parent is None:
                    self.outermost_s += elapsed
                else:
                    parent.child_s += elapsed
            self._observe(span, parent, result)
            return result

        return functools.wraps(fn)(traced)

    def _observe(self, span: _Span, parent, result) -> None:
        if span.name == ENUMERATE:
            self.classes += len(result)
        elif span.name == CON_LATTICE:
            self.con_members += len(result)
            self.distinct_closures += len(span.closures)
        elif span.name == CLOSURE and parent is not None and parent.closures is not None:
            parent.closures.add(result)


@contextmanager
def installed(tracer: Tracer, package):
    """Replace every binding of each traced function while the block runs."""
    prefix = package.__name__ + "."
    modules = [m for name, m in list(sys.modules.items())
               if name == package.__name__ or name.startswith(prefix)]
    patched = []
    try:
        for qualname in TRACED:
            module_name, attr = qualname.split(".")
            original = getattr(getattr(package, module_name), attr)
            wrapped = tracer.wrap(qualname, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        patched.append((module, key, original))
        yield tracer
    finally:
        for module, key, original in patched:
            setattr(module, key, original)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced_wall: float, factor: float,
                  untraced_ref_wall: float, traced_ref_wall: float) -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit).

    Span times are scaled to reference seconds by the pass's speed
    factor; the probe's own time stays inside the spans it interrupted.
    """
    calls = tracer.calls
    self_s = defaultdict(float, {name: t * factor for name, t in tracer.self_s.items()})
    candidates = tracer.calls_under["construct.rectangular_profile", ENUMERATE]
    closures = tracer.calls_under[CLOSURE, CON_LATTICE]
    out = {
        "campaign.enumerate_family.calls": (calls[ENUMERATE], "count"),
        "campaign.enumerate_family.self_s": (self_s[ENUMERATE], "s"),
        "campaign.verify_claims.self_s": (self_s["campaign.verify_claims"], "s"),
        "campaign.search_representation.self_s": (self_s["campaign.search_representation"], "s"),
        "campaign.candidates": (candidates, "count"),
        "campaign.classes": (tracer.classes, "count"),
        "campaign.duplicate_share": (1.0 - _ratio(tracer.classes, candidates) if candidates else 0.0, "share"),
        "construct.insert_fork.calls": (calls["construct.insert_fork"], "count"),
        "construct.insert_fork.self_s": (self_s["construct.insert_fork"], "s"),
        "construct.rectangular_profile.self_s": (self_s["construct.rectangular_profile"], "s"),
        "diagram.build_diagram.calls": (calls["diagram.build_diagram"], "count"),
        "diagram.build_diagram.self_s": (self_s["diagram.build_diagram"], "s"),
        "diagram.is_slim.self_s": (self_s["diagram.is_slim"], "s"),
        "diagram.is_semimodular.self_s": (self_s["diagram.is_semimodular"], "s"),
        "diagram.is_graded.self_s": (self_s["diagram.is_graded"], "s"),
        "diagram.canonical_key.calls": (calls["diagram.canonical_key"], "count"),
        "diagram.canonical_key.self_s": (self_s["diagram.canonical_key"], "s"),
        "diagram.four_cells.self_s": (self_s["diagram.four_cells"], "s"),
        "congruence.principal_congruence.calls": (calls[CLOSURE], "count"),
        "congruence.principal_congruence.self_s": (self_s[CLOSURE], "s"),
        "congruence.closures_per_class": (_ratio(closures, calls[CON_LATTICE]), "count/class"),
        "congruence.closure_yield": (_ratio(tracer.distinct_closures, closures), "share"),
        "congruence.congruence_lattice.calls": (calls[CON_LATTICE], "count"),
        "congruence.congruence_lattice.self_s": (self_s[CON_LATTICE], "s"),
        "congruence.con_members_total": (tracer.con_members, "count"),
        "congruence.ji_poset_of.self_s": (self_s["congruence.ji_poset_of"], "s"),
        "congruence.dual_atom_count.self_s": (self_s["congruence.dual_atom_count"], "s"),
        "congruence.prime_ideals.self_s": (
            self_s["congruence.is_prime_ideal"] + self_s["congruence.prime_ideal_congruence"], "s"),
        "congruence.lattice_isomorphic.calls": (calls["congruence.lattice_isomorphic"], "count"),
        "congruence.lattice_isomorphic.self_s": (self_s["congruence.lattice_isomorphic"], "s"),
        "congruence.filter_candidate.self_s": (self_s["congruence.filter_candidate"], "s"),
        "io.save.calls": (calls["io.save"], "count"),
        "io.save.self_s": (self_s["io.save"], "s"),
        "io.load.self_s": (self_s["io.load"], "s"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "trace.wall_s": (traced_wall * factor, "s"),
        "trace.unattributed_s": ((traced_wall - tracer.outermost_s) * factor, "s"),
        "trace.overhead_s": (traced_ref_wall - untraced_ref_wall, "s"),
    }
    return out
