"""The toolkit's graph transforms and their gatekeepers: the two vertex
expansions (delta-1 adds one new degree-4 vertex, delta-2 a new adjacent
pair), the edge reduction used to undo them, removability of edges in both
its direct and its structural 3-separator form, and quasi-4-compatibility
of an operation's parameter set.

The structural form asks for a 3-set S that splits g - xy, for an edge xy
of a 4-connected g, into two components holding x and y.  By Menger's
theorem g has 4 internally disjoint x-y paths, the edge xy among them at
most once, so g - xy keeps at least 3.  S avoids x and y, so it separates
them only if it holds an interior vertex of every such path; with 3 paths
and |S| = 3 it holds exactly one of each, and 4 paths leave no such S.
So `_separated` runs one flow and tries only the products of the 3 paths'
interiors, not all C(n - 2, 3) 3-sets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from . import chording
from .chording import DEFAULT_BUDGET, SearchBudget
from .connectivity import _components, _flow_paths, ends, is_k_connected, vertex_connectivity
from .graph_core import Graph, GraphError, add_vertex_with_neighbors, remove_edges

Pair = Tuple[int, int]


class SpecInvalid(GraphError):
    """An operation parameter set violates a named defining clause."""

    def __init__(self, clause: str, message: str):
        super().__init__(f"{clause}: {message}")
        self.clause = clause


class ConnectivityTooLow(SpecInvalid):
    pass


class EndCoverageViolated(SpecInvalid):
    def __init__(self, clause: str, message: str, end_body: frozenset):
        super().__init__(clause, message)
        self.end_body = end_body


def _norm_edges(edges) -> Tuple[Pair, ...]:
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in edges}))


@dataclass(frozen=True)
class Delta1Spec:
    """Parameters of a delta-1 expansion: wipe ex_edges inside the 3-set
    x_set, then attach a new vertex to x_set plus y_vertex."""
    x_set: Tuple[int, int, int]
    y_vertex: int
    ex_edges: Tuple[Pair, ...]

    def __init__(self, x_set, y_vertex, ex_edges):
        object.__setattr__(self, "x_set", tuple(sorted(x_set)))
        object.__setattr__(self, "y_vertex", int(y_vertex))
        object.__setattr__(self, "ex_edges", _norm_edges(ex_edges))


@dataclass(frozen=True)
class Delta2Spec:
    """Parameters of a delta-2 expansion: wipe ex_edges / ey_edges inside
    the 3-sets, then attach a new adjacent vertex pair, one side each."""
    x_set: Tuple[int, int, int]
    y_set: Tuple[int, int, int]
    ex_edges: Tuple[Pair, ...]
    ey_edges: Tuple[Pair, ...]

    def __init__(self, x_set, y_set, ex_edges, ey_edges):
        object.__setattr__(self, "x_set", tuple(sorted(x_set)))
        object.__setattr__(self, "y_set", tuple(sorted(y_set)))
        object.__setattr__(self, "ex_edges", _norm_edges(ex_edges))
        object.__setattr__(self, "ey_edges", _norm_edges(ey_edges))


CompatSet = Union[Delta1Spec, Delta2Spec]


@dataclass(frozen=True)
class CompatViolation:
    pair: Pair
    predicate: str  # "quasi_3cc" | "quasi_chord" | "e_plus_quasi_3cc"
    added_edge: Optional[Pair]
    path: Tuple[int, ...]
    detail: object


@dataclass(frozen=True)
class CompatReport:
    compatible: bool
    violation: Optional[CompatViolation]


# -- reduction and removability ----------------------------------------------


def _checked_edge(g: Graph, e: Pair) -> Pair:
    """e as x < y, once e is an edge of g and g is 4-connected."""
    x, y = min(e), max(e)
    if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise GraphError(f"edge ({x},{y}) not in graph")
    if not is_k_connected(g, 4):
        raise GraphError("reduction is defined on 4-connected graphs")
    return x, y


def reduce_edge(g: Graph, e: Pair) -> Tuple[Graph, Dict[int, int]]:
    """Delete the edge; an endpoint left with degree 3 is deleted and its
    neighborhood completed into a clique.  Lower-id endpoint first (the
    outcome is order-independent; the suite asserts as much).

    Returns the reduced graph with dense ids plus the old-to-new map;
    deleted endpoints are absent from the map.
    """
    return _reduce(g, *_checked_edge(g, e))


def _reduce(g: Graph, x: int, y: int) -> Tuple[Graph, Dict[int, int]]:
    """reduce_edge for an edge x < y of a graph known to be 4-connected."""
    nbrs = {v: set(g.neighbors(v)) for v in range(g.n)}
    nbrs[x].discard(y)
    nbrs[y].discard(x)
    for w in (x, y):
        if len(nbrs[w]) != 3:
            continue
        hood = sorted(nbrs[w])
        for v in hood:
            nbrs[v].discard(w)
        del nbrs[w]
        for a, b in itertools.combinations(hood, 2):
            nbrs[a].add(b)
            nbrs[b].add(a)
    keep = sorted(nbrs)
    remap = {old: new for new, old in enumerate(keep)}
    edges = {(remap[a], remap[b]) for a in keep for b in nbrs[a] if a < b}
    return Graph(len(keep), edges), remap


def _removable(g: Graph, x: int, y: int) -> bool:
    """is_removable for an edge x < y of a graph known to be 4-connected."""
    h, _ = _reduce(g, x, y)
    return h.n >= 5 and is_k_connected(h, 4)


def is_removable(g: Graph, e: Pair) -> bool:
    """Direct form: the reduction stays 4-connected (and big enough)."""
    return _removable(g, *_checked_edge(g, e))


def is_removable_structural(g: Graph, e: Pair) -> bool:
    """Separator form: non-removable iff some 3-set splits g - e into
    exactly two components of size >= 2 holding one endpoint each."""
    if g.n < 7:
        raise GraphError("the structural criterion needs at least 7 vertices")
    if not is_k_connected(g, 4):
        raise GraphError("the structural criterion needs a 4-connected graph")
    x, y = min(e), max(e)
    if not g.has_edge(x, y):
        raise GraphError(f"edge ({x},{y}) not in graph")
    return not _separated(g, x, y)


def _separated(g: Graph, x: int, y: int) -> bool:
    """Whether some 3-set splits g - xy as is_removable_structural describes,
    for an edge x < y of a 4-connected graph on at least 7 vertices.

    That precondition gives g - xy at least 3 internally disjoint x-y
    paths, so only the 3-sets with one vertex on each of them are tried.
    """
    adj = list(g._adj)
    adj[x] &= ~(1 << y)
    adj[y] &= ~(1 << x)
    full = (1 << g.n) - 1
    paths = _flow_paths(adj, x, y, 4, full, None)
    if len(paths) == 4:
        return False
    for s in itertools.product(*(p[1:-1] for p in paths)):
        alive = full
        for c in s:
            alive &= ~(1 << c)
        comps = _components(adj, alive)
        if len(comps) != 2:
            continue
        cx = next(c for c in comps if c >> x & 1)
        cy = next(c for c in comps if c >> y & 1)
        if cx == cy:
            continue
        if cx.bit_count() >= 2 and cy.bit_count() >= 2:
            return True
    return False


def removable_edges(g: Graph) -> List[Pair]:
    edges = g.edges()
    if edges and not is_k_connected(g, 4):
        raise GraphError("reduction is defined on 4-connected graphs")
    return [(x, y) for x, y in edges if _removable(g, x, y)]


# -- the expansions -----------------------------------------------------------


def _check_triple(h: Graph, xs: Tuple[int, ...], label: str) -> None:
    if len(xs) != 3 or len(set(xs)) != 3:
        raise SpecInvalid(f"{label}-three-distinct", f"{label} must name 3 distinct vertices, got {xs}")
    if any(not 0 <= v < h.n for v in xs):
        raise SpecInvalid(f"{label}-in-host", f"{label} {xs} leaves the host vertex range")


def _check_edge_subset(h: Graph, xs, picked, label: str) -> None:
    inside = {(a, b) for a, b in itertools.combinations(sorted(xs), 2) if h.has_edge(a, b)}
    if not inside:
        raise SpecInvalid(f"{label}-induced-nonempty", f"the host has no edge inside {xs}")
    if not picked:
        raise SpecInvalid(f"{label}-nonempty", f"the removed edge set inside {xs} must be nonempty")
    bad = [e for e in picked if e not in inside]
    if bad:
        raise SpecInvalid(f"{label}-subset", f"edges {bad} are not host edges inside {xs}")


def _reduced(h: Graph, spec: CompatSet) -> Graph:
    """The host minus the spec's removed edges, once the shape clauses hold."""
    _check_triple(h, spec.x_set, "x_set")
    if isinstance(spec, Delta1Spec):
        if not 0 <= spec.y_vertex < h.n or spec.y_vertex in spec.x_set:
            raise SpecInvalid("y-outside-x",
                              f"attachment vertex {spec.y_vertex} must lie outside {spec.x_set}")
        _check_edge_subset(h, spec.x_set, spec.ex_edges, "ex")
        return remove_edges(h, spec.ex_edges)
    _check_triple(h, spec.y_set, "y_set")
    if len(set(spec.x_set) & set(spec.y_set)) > 2:
        raise SpecInvalid("x-y-overlap", "the 3-sets may share at most 2 vertices")
    _check_edge_subset(h, spec.x_set, spec.ex_edges, "ex")
    _check_edge_subset(h, spec.y_set, spec.ey_edges, "ey")
    return remove_edges(h, set(spec.ex_edges) | set(spec.ey_edges))


def _clauses(h: Graph, spec: CompatSet) -> Graph:
    """The reduced host, once every defining clause but the host's own
    4-connectivity holds; callers that know h is 4-connected skip that one."""
    reduced = _reduced(h, spec)
    # the reduced host equals the expansion minus its new vertices, so one
    # connectivity computation covers both stated quantities
    kappa = vertex_connectivity(reduced)
    if isinstance(spec, Delta1Spec):
        if kappa < 3:
            raise ConnectivityTooLow("reduced-kappa-3", "host minus removed edges must stay 3-connected")
    elif kappa < 2:
        raise ConnectivityTooLow("reduced-kappa-2", "host minus removed edges must stay 2-connected")
    elif kappa == 2:
        xs, ys = set(spec.x_set), set(spec.y_set)
        for end in ends(reduced):
            body = end.fragment.body
            if not (body & xs) or not (body & ys):
                raise EndCoverageViolated(
                    "end-coverage",
                    f"end {sorted(body)} of the reduced host misses one of the 3-sets",
                    body)
    return reduced


def _attach(reduced: Graph, spec: CompatSet) -> Graph:
    """The expansion: the new vertex, or the new adjacent pair, on the reduced host."""
    if isinstance(spec, Delta1Spec):
        return add_vertex_with_neighbors(reduced, list(spec.x_set) + [spec.y_vertex])
    g = add_vertex_with_neighbors(reduced, spec.x_set)           # new vertex reduced.n
    return add_vertex_with_neighbors(g, list(spec.y_set) + [reduced.n])


def _validated(h: Graph, spec: CompatSet) -> Graph:
    """The reduced host, once every defining clause holds."""
    if not is_k_connected(h, 4):
        raise SpecInvalid("host-4-connected", "the host graph must be 4-connected")
    return _clauses(h, spec)


# six functions, not aliases, so that rebinding one name leaves the others alone


def validate_delta1(h: Graph, spec: Delta1Spec) -> None:
    _validated(h, spec)


def apply_delta1(h: Graph, spec: Delta1Spec) -> Graph:
    return _attach(_validated(h, spec), spec)


def validate_delta2(h: Graph, spec: Delta2Spec) -> None:
    _validated(h, spec)


def apply_delta2(h: Graph, spec: Delta2Spec) -> Graph:
    return _attach(_validated(h, spec), spec)


def apply_delta(h: Graph, spec: CompatSet) -> Graph:
    return _attach(_validated(h, spec), spec)


def validate_delta(h: Graph, spec: CompatSet) -> None:
    _validated(h, spec)


# -- quasi-4-compatibility -----------------------------------------------------


def _triangle(xs) -> Tuple[Pair, ...]:
    return tuple(itertools.combinations(sorted(xs), 2))


def _q3cc_violation(reduced: Graph, pair: Pair, budget: SearchBudget) -> Optional[CompatViolation]:
    found = chording.find_quasi_3cc_path(reduced, pair[0], pair[1], budget)
    if found is None:
        return None
    path, witness = found
    return CompatViolation(pair, "quasi_3cc", None, path, witness)


def is_quasi_4_compatible(h: Graph, spec: CompatSet,
                          budget: SearchBudget = DEFAULT_BUDGET) -> CompatReport:
    """Decide whether the parameter set passes every path-exclusion
    condition of its type; the first failing pair is reported with a
    re-validated witness."""
    reduced = _reduced(h, spec)
    if isinstance(spec, Delta1Spec):
        return _compat_type1(reduced, spec, budget)
    return _compat_type2(reduced, spec, budget)


def _compat_type1(reduced: Graph, spec: Delta1Spec, budget: SearchBudget) -> CompatReport:
    # triangle pairs first: their verdicts are shared across attachment vertices
    pairs = [e for e in _triangle(spec.x_set) if e not in spec.ex_edges]
    pairs += [(u, spec.y_vertex) for u in spec.x_set]
    for pair in pairs:
        hit = _q3cc_violation(reduced, pair, budget)
        if hit is not None:
            return CompatReport(False, hit)
    return CompatReport(True, None)


def _compat_type2(reduced: Graph, spec: Delta2Spec, budget: SearchBudget) -> CompatReport:
    xs, ys = set(spec.x_set), set(spec.y_set)

    # (i): plain path exclusion across the two 3-sets and on triangle
    # pairs whose edge is not being removed
    pairs = [(u, v) for u in sorted(xs - ys) for v in sorted(ys - xs)]
    pairs += [e for e in _triangle(spec.x_set) if e not in spec.ex_edges]
    pairs += [e for e in _triangle(spec.y_set) if e not in spec.ey_edges]
    seen = set()
    for pair in pairs:
        key = tuple(sorted(pair))
        if key in seen:
            continue
        seen.add(key)
        hit = _q3cc_violation(reduced, pair, budget)
        if hit is not None:
            return CompatReport(False, hit)
    if len(xs & ys) == 2:
        u, v = sorted(xs & ys)
        found = chording.find_quasi_chord(reduced, u, v, budget)
        if found is not None:
            path, arcs = found
            return CompatReport(False, CompatViolation((u, v), "quasi_chord", None, path, arcs))

    # (ii): no pair under a kept triangle edge of one side may become
    # chording when a missing-or-removed edge of the other side is added.
    # "Missing" is judged against the reduced graph: when the 3-sets share
    # a pair, an edge wiped by the opposite side's removal set is just as
    # reconstructible through the new vertices as one wiped by its own.
    for side_set, side_ex, other_set in (
            (spec.x_set, spec.ex_edges, spec.y_set),
            (spec.y_set, spec.ey_edges, spec.x_set)):
        kept = [e for e in _triangle(side_set) if e not in side_ex]
        addable = [e for e in _triangle(other_set) if not reduced.has_edge(*e)]
        for e1 in kept:
            for e in addable:
                found = chording.find_e_plus_quasi_3cc_path(reduced, e1[0], e1[1], e, budget)
                if found is not None:
                    path, witness = found
                    return CompatReport(False, CompatViolation(e1, "e_plus_quasi_3cc", e, path, witness))
    return CompatReport(True, None)
