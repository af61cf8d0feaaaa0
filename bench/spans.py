"""Per-layer tracing from outside the program.

The tracer wraps the public functions of each unicon4 module at run time.
Every module attribute that is bound to an original function is rebound to
its wrapper, so calls go through the wrapper whether they are made inside
the defining module (a global lookup) or through a name another module
imported.  Nothing under src/ is edited.

A span is (parent index, function name, start, end, outcome); spans are
kept in memory in start order and reduced to layer metrics when the run
ends.  Private helpers such as the flow kernel get no span: their time is
self time of the public function that called them.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

# layer group -> (module, functions).  Metric names derive from the group.
GROUPS: Dict[str, tuple] = {
    "graph_core.canonical": ("graph_core", ("canonical_labeling", "canonical_form", "canonical_cert",
                                            "are_isomorphic", "find_isomorphism")),
    "graph_core.io": ("graph_core", ("parse_graph6", "format_graph6", "parse_edge_list",
                                     "format_edge_list", "to_dot")),
    "connectivity.uniform4": ("connectivity", ("is_uniformly_4_connected",)),
    "connectivity.k_connected": ("connectivity", ("is_k_connected",)),
    "connectivity.kappa": ("connectivity", ("vertex_connectivity", "local_connectivity")),
    "connectivity.ends": ("connectivity", ("ends", "minimum_cuts", "fragments")),
    "connectivity.report": ("connectivity", ("connectivity_report",)),
    "chording.exists": ("chording", ("exists_quasi_3cc_path", "exists_e_plus_quasi_3cc_path",
                                     "exists_quasi_chord")),
    "chording.find": ("chording", ("find_quasi_3cc_path", "find_e_plus_quasi_3cc_path",
                                   "find_quasi_chord", "classify_quasi_3cc", "verify_witness")),
    "transform.validate": ("transform", ("validate_delta", "validate_delta1", "validate_delta2")),
    "transform.compat": ("transform", ("is_quasi_4_compatible",)),
    "transform.apply": ("transform", ("apply_delta", "apply_delta1", "apply_delta2")),
    "transform.reduce": ("transform", ("reduce_edge", "is_removable", "is_removable_structural",
                                       "removable_edges")),
    "construct.oracle": ("construct", ("brute_force_uniform", "oracle_graphs")),
    "construct.generate": ("construct", ("generate_catalog", "generate_all")),
    "construct.decompose": ("construct", ("decompose",)),
    "construct.replay": ("construct", ("replay",)),
    "cli": ("cli", ("main",)),
}

GROUP_OF: Dict[str, str] = {f"{mod}.{fn}": group
                            for group, (mod, fns) in GROUPS.items() for fn in fns}

# the predicates whose verdict the trace keeps, so that ratios are measured
# where the work happens; every other result is dropped at once
OUTCOME: Dict[str, Callable] = {
    "connectivity.is_uniformly_4_connected": lambda r: r[0],
    "chording.exists_quasi_3cc_path": bool,
    "chording.exists_e_plus_quasi_3cc_path": bool,
    "chording.exists_quasi_chord": bool,
    "transform.is_quasi_4_compatible": lambda r: True if r.compatible else r.violation.predicate,
    "construct.decompose": lambda r: len(r.steps),
}

SPEC_CLAUSES = ("reduced-kappa-3", "reduced-kappa-2", "end-coverage")
COMPAT_PREDICATES = ("quasi_3cc", "quasi_chord", "e_plus_quasi_3cc")


class Span(NamedTuple):
    parent: int  # index of the enclosing span, -1 at top level
    name: str
    start: float
    end: float
    outcome: object  # OUTCOME value, None, or ("raise", exception name, clause)


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.current = -1
        self._bindings: list = []

    def wrap(self, fn: Callable, name: str) -> Callable:
        summarize = OUTCOME.get(name)

        def traced(*args, **kwargs):
            parent = self.current
            index = len(self.spans)
            self.spans.append(None)
            self.current = index
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(index, parent, name, start,
                            ("raise", type(exc).__name__, getattr(exc, "clause", None)))
                raise
            self._close(index, parent, name, start, None)
            if summarize is not None:
                self.spans[index] = self.spans[index]._replace(outcome=summarize(result))
            return result

        return functools.update_wrapper(traced, fn)

    def _close(self, index, parent, name, start, outcome):
        end = self.clock()
        self.current = parent
        self.spans[index] = Span(parent, name, start, end, outcome)

    def install(self, modules: Dict[str, object]) -> None:
        """Rebind every attribute of every module that names a traced
        function.  modules maps short names (graph_core, ...) to modules;
        other entries, such as the package itself, are rebound too."""
        for mod, fns in GROUPS.values():
            home = modules[mod]
            for fn in fns:
                original = getattr(home, fn)
                wrapper = self.wrap(original, f"{mod}.{fn}")
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._bindings.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._bindings):
            setattr(module, attr, original)
        self._bindings.clear()


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it (the program has
    no threads), so their durations never overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.end - s.start
    return out


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Reduce spans to the per-layer metrics.

    <group>.calls counts entries into a group from outside it, so nested
    calls inside one layer (canonical_cert -> canonical_form) count once;
    <group>.self_s sums the self time of all of the group's spans."""
    selfs = self_times(spans)
    groups = [GROUP_OF[s.name] for s in spans]
    calls = {g: 0 for g in GROUPS}
    self_s = {g: 0.0 for g in GROUPS}
    by_name: Dict[str, int] = {}
    entries: Dict[str, list] = {g: [] for g in GROUPS}
    for i, s in enumerate(spans):
        g = groups[i]
        self_s[g] += selfs[i]
        by_name[s.name] = by_name.get(s.name, 0) + 1
        if s.parent < 0 or groups[s.parent] != g:
            calls[g] += 1
            entries[g].append(s)

    def children(parent_group: str, name: str) -> List[Span]:
        return [s for s in spans if s.name == name and s.parent >= 0
                and groups[s.parent] == parent_group]

    m: Dict[str, float] = {}
    for g in GROUPS:
        m[f"{g}.calls"] = calls[g]
        m[f"{g}.self_s"] = self_s[g]

    uni = [s for s in spans if s.name == "connectivity.is_uniformly_4_connected"]
    m["connectivity.uniform4.true_frac"] = _ratio(sum(s.outcome is True for s in uni), len(uni))

    ex = [s for i, s in enumerate(spans) if groups[i] == "chording.exists"]
    m["chording.exists.true_frac"] = _ratio(sum(s.outcome is True for s in ex), len(ex))
    for short, fn in (("q3cc", "exists_quasi_3cc_path"), ("eplus", "exists_e_plus_quasi_3cc_path"),
                      ("qchord", "exists_quasi_chord")):
        m[f"chording.exists.{short}.calls"] = by_name.get(f"chording.{fn}", 0)
    m["chording.budget_exceeded"] = sum(
        1 for g in ("chording.exists", "chording.find") for s in entries[g]
        if isinstance(s.outcome, tuple) and s.outcome[1] == "BudgetExceeded")

    val = entries["transform.validate"]
    rejected = [s.outcome[2] for s in val if isinstance(s.outcome, tuple)]
    m["transform.validate.pass_frac"] = _ratio(len(val) - len(rejected), len(val))
    for clause in SPEC_CLAUSES:
        m[f"transform.validate.rejected.{clause}"] = rejected.count(clause)
    m["transform.validate.rejected.other"] = sum(c not in SPEC_CLAUSES for c in rejected)

    comp = entries["transform.compat"]
    m["transform.compat.pass_frac"] = _ratio(sum(s.outcome is True for s in comp), len(comp))
    for pred in COMPAT_PREDICATES:
        m[f"transform.compat.rejected.{pred}"] = sum(s.outcome == pred for s in comp)

    m["construct.oracle.screened"] = len(children("construct.oracle",
                                                  "connectivity.is_uniformly_4_connected"))
    m["construct.generate.specs"] = len(children("construct.generate", "transform.validate_delta"))
    dec = [s for s in spans if s.name == "construct.decompose"]
    steps = sum(s.outcome for s in dec if isinstance(s.outcome, int))  # a raise leaves a tuple
    # one uniformity check per decompose call is on the input, the rest on candidates
    candidates = len(children("construct.decompose", "connectivity.is_uniformly_4_connected")) - len(dec)
    m["construct.decompose.useful_frac"] = _ratio(steps, candidates)
    m["cli.main.calls"] = by_name.get("cli.main", 0)
    m["trace.spans"] = len(spans)
    return m


def cache_metrics(chording) -> Dict[str, float]:
    """Cache statistics of the chording layer, read without changing them."""
    m: Dict[str, float] = {}
    for short, fn in (("fan_levels", chording._fan_levels), ("simple_paths", chording._simple_paths)):
        info = fn.cache_info()
        m[f"chording.{short}.hits"] = info.hits
        m[f"chording.{short}.misses"] = info.misses
        m[f"chording.{short}.hit_ratio"] = _ratio(info.hits, info.hits + info.misses)
    m["chording.verdicts.size"] = len(chording._verdicts)
    return m
