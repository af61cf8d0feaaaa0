"""The toolkit's graph transforms and their gatekeepers: the two vertex
expansions (delta-1 adds one new degree-4 vertex, delta-2 a new adjacent
pair), the edge reduction used to undo them, removability of edges in both
its direct and its structural 3-separator form, and quasi-4-compatibility
of an operation's parameter set.

Both removability forms are read off capped counts of disjoint paths
across the removed edge, by the kernel `_local_conn`, with no global
connectivity test and no sweep over 3-sets.  The structural form asks for
a 3-set S that splits g - xy, for an edge xy of a 4-connected g, into two
components holding x and y.  Every component of g - xy - S holds x or y,
else its neighbourhood, inside S, would be a 3-cut of g; so S splits as
asked exactly when it separates x from y and leaves each of them a
neighbour on its side.  `_removable` and `_separated` give the proofs.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from . import chording
from .chording import DEFAULT_BUDGET, SearchBudget
from .connectivity import _ends, _kappa, _local_conn, is_k_connected
from .graph_core import (Graph, GraphError, _form_from, _mask_bits, add_vertex_with_neighbors,
                         remove_edges)

Pair = tuple[int, int]


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


def _norm_edges(edges) -> tuple[Pair, ...]:
    return tuple(sorted({(u, v) if u < v else (v, u) for u, v in edges}))


def _pairs(edges) -> tuple:
    """The removed edges as a tuple, once each is a 2-item pair."""
    try:
        out = tuple(edges)
        bad = [e for e in out if len(e) != 2]
    except TypeError:
        out, bad = (), [edges]
    if bad:
        raise SpecInvalid("edge-pairs", f"removed edges must be vertex pairs, got {bad}")
    return out


def _three_set(ids) -> tuple:
    """A 3-set's ids as a tuple, once they are a collection."""
    try:
        return tuple(ids)
    except TypeError:
        raise SpecInvalid("vertex-ids", f"a 3-set must be a collection of vertex ids, got {ids!r}") from None


def _check_ids(*ids) -> None:
    """Refuse, before any sort, a vertex id that is not exactly an int: a
    float or a bool would otherwise be read as some other vertex."""
    bad = [v for v in ids if type(v) is not int]
    if bad:
        raise SpecInvalid("vertex-ids", f"vertex ids must be integers, got {bad}")


class Delta1Spec(namedtuple("Delta1Spec", "x_set y_vertex ex_edges")):
    """Parameters of a delta-1 expansion: wipe ex_edges inside the 3-set
    x_set, then attach a new vertex to x_set plus y_vertex.  The 3-set and
    the edges are stored sorted."""
    __slots__ = ()

    def __new__(cls, x_set, y_vertex, ex_edges):
        x_set, ex_edges = _three_set(x_set), _pairs(ex_edges)
        _check_ids(*x_set, y_vertex, *itertools.chain(*ex_edges))
        return super().__new__(cls, tuple(sorted(x_set)), y_vertex, _norm_edges(ex_edges))

    @classmethod
    def _make(cls, fields):  # so that _replace normalises and checks too
        return cls(*fields)


class Delta2Spec(namedtuple("Delta2Spec", "x_set y_set ex_edges ey_edges")):
    """Parameters of a delta-2 expansion: wipe ex_edges / ey_edges inside
    the 3-sets, then attach a new adjacent vertex pair, one side each.  The
    3-sets and the edges are stored sorted."""
    __slots__ = ()

    def __new__(cls, x_set, y_set, ex_edges, ey_edges):
        x_set, y_set = _three_set(x_set), _three_set(y_set)
        ex_edges, ey_edges = _pairs(ex_edges), _pairs(ey_edges)
        _check_ids(*x_set, *y_set, *itertools.chain(*ex_edges, *ey_edges))
        return super().__new__(cls, tuple(sorted(x_set)), tuple(sorted(y_set)),
                               _norm_edges(ex_edges), _norm_edges(ey_edges))

    @classmethod
    def _make(cls, fields):  # so that _replace normalises and checks too
        return cls(*fields)


CompatSet = Delta1Spec | Delta2Spec


class CompatViolation(namedtuple("CompatViolation", "pair predicate added_edge path detail")):
    """The failed pair, the predicate it met ("quasi_3cc", "quasi_chord" or
    "e_plus_quasi_3cc"), the added edge or None, the path, and its witness
    or chord arcs."""
    __slots__ = ()


class CompatReport(namedtuple("CompatReport", "compatible violation")):
    """The verdict, and the CompatViolation that refutes it or None."""
    __slots__ = ()


# -- reduction and removability ----------------------------------------------


def _checked_edge(g: Graph, e: Pair) -> Pair:
    """e as x < y, once e is an edge of g and g is 4-connected."""
    x, y = min(e), max(e)
    if not (0 <= x < g.n and 0 <= y < g.n) or not g.has_edge(x, y):
        raise GraphError(f"edge ({x},{y}) not in graph")
    if not is_k_connected(g, 4):
        raise GraphError("reduction is defined on 4-connected graphs")
    return x, y


def reduce_edge(g: Graph, e: Pair) -> tuple[Graph, dict[int, int]]:
    """Delete the edge; an endpoint left with degree 3 is deleted and its
    neighborhood completed into a clique.  Lower-id endpoint first (the
    outcome is order-independent; the suite asserts as much).

    Returns the reduced graph with dense ids plus the old-to-new map;
    deleted endpoints are absent from the map.
    """
    return _reduce(g, *_checked_edge(g, e))


def _reduce(g: Graph, x: int, y: int) -> tuple[Graph, dict[int, int]]:
    """reduce_edge for an edge x < y of a graph known to be 4-connected."""
    adj, gone = _reduction(g, x, y)
    keep = [v for v in range(g.n) if not gone >> v & 1]
    return _form_from(Graph._of(adj), keep), {old: new for new, old in enumerate(keep)}


def _reduction(g: Graph, x: int, y: int) -> tuple[list[int], int]:
    """The reduction of the edge x < y on g's own ids: its rows, which
    still name the deleted endpoints, and the mask of those endpoints."""
    adj = list(g._adj)
    adj[x] &= ~(1 << y)
    adj[y] &= ~(1 << x)
    gone = 0
    for w in (x, y):
        hood = adj[w]
        if hood.bit_count() != 3:
            continue
        # xy is gone, so completing x's neighbourhood leaves y's degree alone
        for v in _mask_bits(hood):
            adj[v] |= hood & ~(1 << v)
        gone |= 1 << w
    return adj, gone


def _removable(g: Graph, x: int, y: int) -> bool:
    """is_removable for an edge x < y of a graph known to be 4-connected.

    The reduction h is read off its rows on g's ids, as the graph they
    induce on the alive mask, which drops the deleted endpoints; the
    capped counts look at alive vertices only.  Let X be {x} if h keeps
    x, else N(x) - y, which h completes into a clique; Y likewise for y.
    Take S of at most 3 alive vertices.  g - S is connected, so each
    component of g - S - xy holds x or y.  A path of g - S - xy becomes a
    walk of h - S once each pass c-w-d through a deleted endpoint w is
    replaced by the clique edge cd, and a path that ends at a deleted x
    enters it from X - S.  So every vertex of h - S reaches X - S or
    Y - S, each connected, and h - S is disconnected only if S separates
    some a in X from some b in Y, a != b and non-adjacent in h.  Hence h,
    on at least 5 vertices, is 4-connected iff each such pair has 4
    internally disjoint paths inside the alive mask: at most 9 capped
    counts.
    """
    adj, gone = _reduction(g, x, y)
    alive = (1 << g.n) - 1 & ~gone
    if alive.bit_count() < 5:
        return False
    sides = [[w] if not gone >> w & 1 else _mask_bits(g._adj[w] & ~(1 << other))
             for w, other in ((x, y), (y, x))]
    return all(_local_conn(adj, a, b, 4, alive, True) == 4
               for a in sides[0] for b in sides[1] if a != b and not adj[a] >> b & 1)


def is_removable(g: Graph, e: Pair) -> bool:
    """Direct form: the reduction stays 4-connected (and big enough)."""
    return _removable(g, *_checked_edge(g, e))


def is_removable_structural(g: Graph, e: Pair) -> bool:
    """Separator form: non-removable iff some 3-set splits g - e into
    exactly two components of size >= 2 holding one endpoint each."""
    if g.n < 7:
        raise GraphError("the structural criterion needs at least 7 vertices")
    return not _separated(g, *_checked_edge(g, e))


def _separated(g: Graph, x: int, y: int) -> bool:
    """Whether some 3-set splits g - xy as is_removable_structural describes,
    for an edge x < y of a 4-connected graph on at least 7 vertices.

    g - xy has at least 3 internally disjoint x-y paths; with 4 no 3-set
    separates x from y, which one count settles.  The paths leave x and
    enter y through distinct neighbours other than x and y, so there can
    be 4 only when x and y both have degree >= 5, and only then is the
    count made.  Otherwise a 3-set S that splits g - xy as asked leaves a
    neighbour a of x on x's side and a neighbour b of y on y's side: a is
    not y and not adjacent to y, b likewise, and a, b are not adjacent.
    S then separates {x, a} from {y, b}, so contracting a into x and b
    into y leaves x-y local connectivity below 4, the edge xy not counted.
    Conversely, a cut of at most 3 vertices between the contracted x and
    y separates x from y in g - xy, so it is a 3-set with a on x's side
    and b on y's, and each side holds 2 vertices.
    """
    adj, full = g._adj, (1 << g.n) - 1
    high = min(adj[x].bit_count(), adj[y].bit_count()) >= 5
    if high and _local_conn(adj, x, y, 4, full, False) == 4:
        return False
    for a in _mask_bits(adj[x] & ~adj[y] & ~(1 << y)):
        for b in _mask_bits(adj[y] & ~adj[x] & ~adj[a] & ~(1 << x)):
            rows = list(adj)  # a and b keep their rows; the alive mask drops them
            for keep, gone in ((x, a), (y, b)):
                for v in _mask_bits(adj[gone]):
                    rows[v] |= 1 << keep
                rows[keep] = (rows[keep] | adj[gone]) & ~(1 << keep)
            if _local_conn(rows, x, y, 4, full & ~(1 << a) & ~(1 << b), False) < 4:
                return True
    return False


def removable_edges(g: Graph) -> list[Pair]:
    if g.n < 5 or not is_k_connected(g, 4):
        raise GraphError("reduction is defined on 4-connected graphs")
    return [(x, y) for x, y in g.edges() if _removable(g, x, y)]


# -- the expansions -----------------------------------------------------------


def _check_triple(h: Graph, xs: tuple[int, ...], label: str) -> None:
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
    # connectivity computation covers both stated quantities; the clauses
    # read kappa only up to 3
    kappa = _kappa(reduced, 3)
    if isinstance(spec, Delta1Spec):
        if kappa < 3:
            raise ConnectivityTooLow("reduced-kappa-3", "host minus removed edges must stay 3-connected")
    elif kappa < 2:
        raise ConnectivityTooLow("reduced-kappa-2", "host minus removed edges must stay 2-connected")
    elif kappa == 2:
        xs, ys = set(spec.x_set), set(spec.y_set)
        for end in _ends(reduced, kappa):
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


def _validated(h: Graph, spec: CompatSet, kinds: tuple[type, ...] = (Delta1Spec, Delta2Spec)) -> Graph:
    """The reduced host, once spec is one of kinds and every defining clause holds."""
    if not isinstance(spec, kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise SpecInvalid("spec-kind", f"expected a {names}, got {type(spec).__name__}")
    if not is_k_connected(h, 4):
        raise SpecInvalid("host-4-connected", "the host graph must be 4-connected")
    return _clauses(h, spec)


# six functions, not aliases, so that rebinding one name leaves the others alone


def validate_delta1(h: Graph, spec: Delta1Spec) -> None:
    _validated(h, spec, (Delta1Spec,))


def apply_delta1(h: Graph, spec: Delta1Spec) -> Graph:
    return _attach(_validated(h, spec, (Delta1Spec,)), spec)


def validate_delta2(h: Graph, spec: Delta2Spec) -> None:
    _validated(h, spec, (Delta2Spec,))


def apply_delta2(h: Graph, spec: Delta2Spec) -> Graph:
    return _attach(_validated(h, spec, (Delta2Spec,)), spec)


def apply_delta(h: Graph, spec: CompatSet) -> Graph:
    return _attach(_validated(h, spec), spec)


def validate_delta(h: Graph, spec: CompatSet) -> None:
    _validated(h, spec)


# -- quasi-4-compatibility -----------------------------------------------------


def _triangle(xs) -> tuple[Pair, ...]:
    return tuple(itertools.combinations(sorted(xs), 2))


def is_quasi_4_compatible(h: Graph, spec: CompatSet,
                          budget: SearchBudget = DEFAULT_BUDGET) -> CompatReport:
    """Decide whether the parameter set passes every path-exclusion
    condition of its type; the first failing pair is reported with a
    re-validated witness."""
    reduced = _reduced(h, spec)
    kept_x = [e for e in _triangle(spec.x_set) if e not in spec.ex_edges]
    if isinstance(spec, Delta1Spec):
        # triangle pairs first: their verdicts are shared across attachment vertices
        pairs = kept_x + [(u, spec.y_vertex) for u in spec.x_set]
    else:
        # (i): plain path exclusion across the two 3-sets and on triangle
        # pairs whose edge is not being removed
        xs, ys = set(spec.x_set), set(spec.y_set)
        pairs = [(u, v) for u in sorted(xs - ys) for v in sorted(ys - xs)] + kept_x
        pairs += [e for e in _triangle(spec.y_set) if e not in spec.ey_edges]
    seen = set()  # a delta-1 spec never repeats a pair
    for pair in pairs:
        key = tuple(sorted(pair))
        if key in seen:
            continue
        seen.add(key)
        found = chording.find_quasi_3cc_path(reduced, pair[0], pair[1], budget)
        if found is not None:
            path, witness = found
            return CompatReport(False, CompatViolation(pair, "quasi_3cc", None, path, witness))
    if isinstance(spec, Delta1Spec):
        return CompatReport(True, None)
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
