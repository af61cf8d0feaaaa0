"""Executable form of the constructive characterization: breadth-first
generation of every uniformly 4-connected graph up to a target order
(n <= 10) by compatible expansions of the two base graphs, checking one
spec per orbit of each host's automorphism group on integer spec keys; an
independent census oracle that grows every candidate isomorphism class one
vertex at a time, adding only vertices of the greatest degree and, among
those, of the most edges among their neighbours, keeping the degree >= 5
vertices a forest and every pair at local connectivity <= 4 (n <= 11);
decomposition of any uniformly 4-connected graph back to a base with a
replayable trace; and the report that compares all three.
"""

from __future__ import annotations

import itertools
import json
import time
from collections import namedtuple
from collections.abc import Iterator, Sequence

from .chording import DEFAULT_BUDGET, BudgetExceeded, SearchBudget, _can_truncate
from .connectivity import _components, _pair_above_4, is_uniformly_4_connected
from .graph_core import (Graph, GraphError, add_edges, canonical_cert, format_graph6,
                         square_of_cycle, _canonical_search, _cert_of, _form_from, _group, _iso_from,
                         _mask_bits)
from .transform import (CompatSet, Delta1Spec, Delta2Spec, Pair, SpecInvalid, _attach,
                        _clauses, _reduced, is_quasi_4_compatible)

TRACE_SCHEMA = "unicon4.trace/v1"

BASE_TAGS = ("C5SQ", "C6SQ")

# the spec kind each trace op names; its fields are the step's JSON keys
SPEC_KINDS = {"delta1": Delta1Spec, "delta2": Delta2Spec}

# each base's certificate and canonical labeling, which never change; decompose
# stops at them without a search
_BASES = {"C5SQ": (b"D~{", (0, 1, 2, 3, 4)), "C6SQ": (b"E]~o", (0, 3, 1, 4, 2, 5))}

# candidates decompose examines before giving up (K4,4 exhausts its search after 784)
DECOMPOSE_CANDIDATES = 1_000_000


class NotUniform(GraphError):
    """Decomposition requires a uniformly 4-connected input."""


class DecompositionError(RuntimeError):
    pass


class StepInvalid(RuntimeError):
    def __init__(self, index: int, cause: str):
        super().__init__(f"trace step {index}: {cause}")
        self.index = index
        self.cause = cause


class CertMismatch(RuntimeError):
    def __init__(self, index: int, expected: bytes, got: bytes):
        super().__init__(f"trace step {index}: certificate mismatch")
        self.index = index
        self.expected = expected
        self.got = got


class TraceFormatError(ValueError):
    pass


class TraceStep(namedtuple("TraceStep", "op spec post_cert")):
    """One expansion: op ("delta1" or "delta2"), its spec, and the
    certificate of the graph it builds."""
    __slots__ = ()


class ConstructionTrace(namedtuple("ConstructionTrace", "base steps")):
    """A base tag ("C5SQ" or "C6SQ") and the tuple of TraceSteps from it."""
    __slots__ = ()


def base_graph(tag: str) -> Graph:
    if tag == "C5SQ":
        return square_of_cycle(5)
    if tag == "C6SQ":
        return square_of_cycle(6)
    raise TraceFormatError(f"unknown base tag {tag!r}")


# -- trace (de)serialization, schema v1 ---------------------------------------


def _spec_kind(op: object) -> type | None:
    """The spec kind that op names, or None; an unhashable op names none."""
    return SPEC_KINDS.get(op) if isinstance(op, str) else None


def trace_to_json(trace: ConstructionTrace) -> str:
    steps = []
    for s in trace.steps:
        d = {"op": s.op, "x_set": list(s.spec.x_set),
             "ex_edges": [list(e) for e in s.spec.ex_edges],
             "post_cert": s.post_cert.decode("ascii")}
        if isinstance(s.spec, Delta1Spec):
            d["y_vertex"] = s.spec.y_vertex
        else:
            d["y_set"] = list(s.spec.y_set)
            d["ey_edges"] = [list(e) for e in s.spec.ey_edges]
        steps.append(d)
    return json.dumps({"schema": TRACE_SCHEMA, "base": trace.base, "steps": steps}, indent=2)


def trace_from_json(text: str) -> ConstructionTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(f"expected schema {TRACE_SCHEMA}")
    if doc.get("base") not in BASE_TAGS:
        raise TraceFormatError(f"base must be one of {BASE_TAGS}")
    if not isinstance(doc.get("steps", []), list):
        raise TraceFormatError("steps must be a list")
    steps = []
    for i, d in enumerate(doc.get("steps", [])):
        try:
            op = d["op"]
            kind = _spec_kind(op)
            if kind is None:
                raise TraceFormatError(f"step {i}: unknown op {op!r}")
            # the JSON keys are the spec's fields; a spec refuses any id that
            # is not an int with SpecInvalid, a ValueError
            spec: CompatSet = kind(*(d[f] for f in kind._fields))
            if not isinstance(d["post_cert"], str):
                raise TypeError(f"post_cert must be a string, got {d['post_cert']!r}")
            steps.append(TraceStep(op, spec, d["post_cert"].encode("ascii")))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TraceFormatError):
                raise
            raise TraceFormatError(f"step {i}: malformed ({exc})") from None
    return ConstructionTrace(doc["base"], tuple(steps))


# -- replay --------------------------------------------------------------------


def replay(trace: ConstructionTrace, budget: SearchBudget = DEFAULT_BUDGET,
           check_compat: bool = True) -> Graph:
    """Rebuild the trace's graph from its base, validating every step.

    Each step is re-validated (defining clauses, compatibility when
    check_compat, uniformity of the result) and its certificate compared;
    the first divergence raises StepInvalid or CertMismatch.
    """
    g = base_graph(trace.base)
    for i, step in enumerate(trace.steps):
        kind = _spec_kind(step.op)
        if kind is None:
            raise StepInvalid(i, f"unknown op {step.op!r}")
        if not isinstance(step.spec, kind):
            raise StepInvalid(i, f"op {step.op} does not match spec kind")
        try:
            reduced = _clauses(g, step.spec)  # g is the base or a checked output: 4-connected
        except SpecInvalid as exc:
            raise StepInvalid(i, str(exc)) from None
        if check_compat:
            rep = is_quasi_4_compatible(g, step.spec, budget)
            if not rep.compatible:
                raise StepInvalid(i, f"parameter set not quasi-4-compatible "
                                     f"({rep.violation.predicate} at {rep.violation.pair})")
        g = _attach(reduced, step.spec)
        uniform, _ = is_uniformly_4_connected(g)
        if not uniform:
            raise StepInvalid(i, "step output is not uniformly 4-connected")
        got = canonical_cert(g)
        if got != step.post_cert:
            raise CertMismatch(i, step.post_cert, got)
    return g


# -- decomposition ---------------------------------------------------------------


def _parent_candidates(g: Graph) -> Iterator[tuple[str, Graph, CompatSet]]:
    """Smaller host graphs H with an expansion spec rebuilding g.

    Candidates are derived from the degree-4 vertices: removing such a
    vertex (or an adjacent degree-4 pair) and restoring edges inside its
    outer neighborhood inverts an expansion.  Full restorations (the edge
    reduction of the removed attachment edge) come first.

    On a 4-connected g every candidate meets the defining clauses, so
    decompose checks none.  The shape clauses hold by construction, and
    removing the spec's edges from the host leaves the reduced host g - x
    (delta-1, 3-connected) or g - {x, y} (delta-2, 2-connected).  If an end
    F of a 2-cut S of g - {x, y} missed x's 3-set, N_g(F) would lie in
    S + {y}, a cut of at most 3 vertices between F and x in g, which is
    impossible; likewise for y's 3-set.  The two 3-sets share at most 2
    vertices: were N(x) - y = N(y) - x, that 3-set would separate {x, y}
    from the rest of g when n >= 6, and at n = 5, g is K5, whose 3-sets
    have no missing edge to restore.
    """
    deg4 = [v for v in range(g.n) if g.degree(v) == 4]
    for x in deg4:
        for y in sorted(g.neighbors(x)):
            xset = tuple(sorted(set(g.neighbors(x)) - {y}))
            missing_x = [e for e in itertools.combinations(xset, 2) if not g.has_edge(*e)]
            if not missing_x:
                continue
            if g.degree(y) >= 5:  # y stays in the host as the attachment vertex
                gone, yset, missing_y = (x,), (), []
            elif y > x:
                yset = tuple(sorted(set(g.neighbors(y)) - {x}))
                missing_y = [e for e in itertools.combinations(yset, 2) if not g.has_edge(*e)]
                if not missing_y:
                    continue
                gone = (x, y)
            else:
                continue
            keep = [v for v in range(g.n) if v not in gone]
            core = _form_from(g, keep)
            remap = {old: new for new, old in enumerate(keep)}
            mx, my = (tuple(sorted((remap[a], remap[b]) for a, b in m)) for m in (missing_x, missing_y))
            mxs = tuple(remap[a] for a in xset)
            mys = tuple(remap[a] for a in yset)
            for exs, eys in itertools.product(_subsets_largest_first(mx),
                                              _subsets_largest_first(my) if yset else [()]):
                host = add_edges(core, exs + eys)
                if yset:
                    yield "delta2", host, Delta2Spec(mxs, mys, exs, eys)
                else:
                    yield "delta1", host, Delta1Spec(mxs, remap[y], exs)


def _subsets_largest_first(edges: tuple) -> Iterator[tuple]:
    for size in range(len(edges), 0, -1):
        yield from itertools.combinations(edges, size)


def decompose(g: Graph) -> ConstructionTrace:
    """A replayable construction of (a graph isomorphic to) g from a base.

    Depth-first search over parent candidates in a fixed order, descending
    only into uniformly 4-connected parents, so every emitted intermediate
    is itself uniformly 4-connected; candidates meet the defining clauses
    by construction (_parent_candidates).  A host whose rows break one of the
    bounds that every uniformly 4-connected graph meets
    (_meets_uniform_bounds) is passed over without the uniformity test.
    Whether the search from a graph succeeds depends only on its
    isomorphism class (by induction on n: an isomorphism maps the
    candidates of one graph onto those of the other), so a class whose
    search failed is recorded by certificate in this call and not searched
    again.  At most DECOMPOSE_CANDIDATES candidates are examined across the
    whole search.
    """
    if g.n < 5 or not is_uniformly_4_connected(g)[0]:
        raise NotUniform("decomposition is defined for uniformly 4-connected graphs")
    nodes = [0]
    failed: set = set()

    def search(cur: Graph, cert: bytes) -> tuple[str, list[TraceStep], Graph, tuple]:
        # cert is cur's certificate; the graph rebuilt comes back with its labeling
        for tag, (base_cert, base_order) in _BASES.items():
            if cert == base_cert:
                return tag, [], base_graph(tag), base_order
        for op, host, spec in () if cert in failed else _parent_candidates(cur):
            nodes[0] += 1
            if nodes[0] > DECOMPOSE_CANDIDATES:
                raise BudgetExceeded(f"decomposition examined {nodes[0]} candidates")
            # a host that breaks a bound cannot be uniformly 4-connected, so
            # skip the witness that is_uniformly_4_connected would build for it
            if not _meets_uniform_bounds(host._adj) or not is_uniformly_4_connected(host)[0]:
                continue
            host_order, _, host_rows = _canonical_search(host)
            try:
                tag, steps, rebuilt, rebuilt_order = search(host, _cert_of(host_rows))
            except DecompositionError:
                continue
            iso = _iso_from(host, rebuilt, host_order, rebuilt_order)
            if iso is None:
                raise RuntimeError("the rebuilt parent is not isomorphic to the candidate host")
            moved = _map_spec(spec, iso)
            out = _attach(_reduced(rebuilt, moved), moved)
            out_order, _, out_rows = _canonical_search(out)
            if _cert_of(out_rows) != cert:
                raise RuntimeError("the rebuilt expansion does not reproduce the decomposed graph")
            steps.append(TraceStep(op, moved, cert))
            return tag, steps, out, out_order
        failed.add(cert)
        raise DecompositionError(f"no uniformly 4-connected parent found for {cur!r}")

    tag, steps, _, _ = search(g, canonical_cert(g))
    return ConstructionTrace(tag, tuple(steps))


def _map_spec(spec: CompatSet, iso: dict[int, int]) -> CompatSet:
    def me(edges):
        return tuple((iso[a], iso[b]) for a, b in edges)
    if isinstance(spec, Delta1Spec):
        return Delta1Spec(tuple(iso[v] for v in spec.x_set), iso[spec.y_vertex], me(spec.ex_edges))
    return Delta2Spec(tuple(iso[v] for v in spec.x_set), tuple(iso[v] for v in spec.y_set),
                      me(spec.ex_edges), me(spec.ey_edges))


# -- labeled classes ---------------------------------------------------------------

# a class as the census and generation keep it: its canonical form, with
# generators of its automorphism group, each a tuple p mapping form vertex v to p[v]
Labeled = tuple[Graph, list[tuple[int, ...]]]


def _labeled(g: Graph) -> Labeled:
    """g's class, from one canonical search: form vertex i is g's vertex
    order[i], so an automorphism a that the search recorded on g is
    i -> pos[a[order[i]]] on the form.  The recorded automorphisms generate
    the whole group (automorphism_group)."""
    order, autos, rows = _canonical_search(g)
    pos = {v: i for i, v in enumerate(order)}
    return Graph._of(rows), [tuple(pos[a[v]] for v in order) for a in autos]


# -- census oracle ----------------------------------------------------------------


def _degree5_forest(rows: Sequence[int]) -> bool:
    """Whether the vertices of degree >= 5 in the graph with these rows
    induce a forest: with H their set, edges(H) = |H| - components(H)."""
    high = 0
    for v, row in enumerate(rows):
        if row.bit_count() >= 5:
            high |= 1 << v
    edges = sum((rows[v] & high).bit_count() for v in _mask_bits(high)) // 2
    return edges == high.bit_count() - len(_components(rows, high))


def _meets_uniform_bounds(rows: Sequence[int]) -> bool:
    """Whether the graph with these rows meets the three necessary bounds
    of _oracle: minimum degree 4, a forest on the vertices of degree >= 5,
    and no pair above 4 (_pair_above_4)."""
    return (min(row.bit_count() for row in rows) >= 4 and _degree5_forest(rows)
            and _pair_above_4(rows) is None)


# a census level: each class's canonical form, with its generators (Labeled)
Level = dict[Graph, list[tuple[int, ...]]]


def _children(parent: Graph, maxdeg: int, gens: Sequence[tuple[int, ...]]) -> Iterator[Graph]:
    """The one-vertex extensions of parent that keep the census bounds and
    whose new vertex k has the greatest key (degree, number of edges among
    its neighbours), ties kept, one per orbit of the miss-sets under the
    group that gens (automorphisms of parent, each a tuple p mapping v to
    p[v]) generates.

    k misses (in G) a set S of at most maxdeg vertices whose complement
    degree is still below maxdeg, and sees every other vertex.  A miss-set
    already in the orbit of a kept one is skipped; the rest are checked,
    cheapest first, before any graph is built or labeled.  First, on
    masks, the degree: k gets degree k - |S| and no old vertex may end
    above it, so no |S| is tried that an old vertex's degree already
    exceeds, and an old vertex of degree k - |S| must lie in S.  Then the
    rest of the key: an old vertex that ties k's degree, one of degree
    k - |S| in S or one of degree k - |S| - 1 that k sees, may not have
    more edges among its neighbours than k has.  It has the parent's
    count, counted once per parent on first need, plus, when k sees it,
    the edges from k to its neighbours; k has the parent's edges less
    those at a vertex of S.  Last, on the child's rows, the vertices of
    degree >= 5 must still induce a forest (_degree5_forest) and no pair
    may have five internally disjoint paths (_pair_above_4).
    """
    k = parent.n
    adj = [parent.adj_mask(v) for v in range(k)]
    deg = [row.bit_count() for row in adj]
    by_deg = [0] * (k + 1)  # the vertices of each degree
    for v in range(k):
        by_deg[deg[v]] |= 1 << v
    avail = [v for v in range(k) if k - 1 - deg[v] < maxdeg]
    edges = sum(deg) // 2
    hood: list[int] = []  # the edges among each vertex's neighbours, on first need
    full = (1 << k) - 1
    seen = set()  # the orbits of the kept miss masks
    for size in range(min(maxdeg, len(avail), k - max(deg)) + 1):
        top, below = by_deg[k - size], by_deg[k - size - 1] if size < k else 0
        for miss in itertools.combinations(avail, size):
            miss_mask = 0
            for v in miss:
                miss_mask |= 1 << v
            if miss_mask in seen:
                continue
            new = full ^ miss_mask
            if new & top:
                continue
            ties = new & below
            if top or ties:
                if not hood:
                    hood = [sum((adj[w] & row).bit_count() for w in _mask_bits(row)) // 2 for row in adj]
                # the edges among k's neighbours: the parent's, less those at a missed vertex
                tk = edges - sum(2 * deg[v] - (adj[v] & miss_mask).bit_count() for v in miss) // 2
                if (any(hood[u] > tk for u in _mask_bits(top))
                        or any(hood[u] + (adj[u] & new).bit_count() > tk for u in _mask_bits(ties))):
                    continue
            rows = [row | 1 << k if new >> u & 1 else row for u, row in enumerate(adj)] + [new]
            if _degree5_forest(rows) and _pair_above_4(rows) is None:
                todo = [miss_mask]
                while todo:
                    m = todo.pop()
                    if m not in seen:
                        seen.add(m)
                        todo.extend(sum(1 << a[v] for v in _mask_bits(m)) for a in gens)
                yield Graph._of(rows)


def _oracle(n: int) -> dict[bytes, Graph]:
    """Every uniformly 4-connected graph on n vertices, keyed by certificate.

    Grows the census one isomorphism class at a time.  Three bounds are
    necessary for uniform 4-connectivity, where every pair has local
    connectivity exactly 4: minimum degree 4 (complement degree at most
    n - 5); no pair above 4, that is, no pair with five internally
    disjoint paths (_pair_above_4; a pair with c common neighbours has c
    such paths, c + 1 when adjacent, which the flow kernel counts first);
    and Mader's forest: a uniformly 4-connected graph is minimally
    4-connected (deleting an edge uv leaves u and v with local
    connectivity 3), so its vertices of degree >= 5 induce a forest (Mader
    1972).  _children keeps them as it adds a vertex, and
    _meets_uniform_bounds checks them on a whole graph, which is how
    decompose screens its hosts.  All three are hereditary: complement
    degrees and the set of degree >= 5 vertices only grow as vertices are
    added, and so does local connectivity, since a path in an induced
    subgraph is a path in the whole graph; so every induced subgraph of a
    graph that meets them meets them too.  Take a graph G on
    k + 1 vertices that meets them, and a vertex v of the greatest key
    (degree, number of edges among its neighbours), which an isomorphism
    preserves (a canonical deletion in McKay's sense).  G - v meets the
    bounds, so its class is in level k, and adding v's neighborhood to
    that class's canonical form gives a child isomorphic to G with v as
    its new vertex: it meets the bounds and its new vertex has the
    greatest key, so _children keeps it.  So, with one canonical form kept
    per class, level k + 1 is every class on k + 1 vertices that meets the
    bounds; duplicates reached from different parents collapse there.
    Each class also carries generators of its automorphism group, which
    its canonical search records anyway (_labeled).  If p is an
    automorphism of the parent, p extended by k -> k maps the child that
    misses S onto the child that misses p(S); the three bounds and the key
    rule are invariant under p, so every image of a kept miss-set would be
    kept too, with an isomorphic child, and _children yields one child per
    orbit.  The classes on n vertices then pass the authoritative
    uniformity test.  Only canonical labeling and the connectivity layer
    are used; nothing from the expansion machinery is consulted.
    """
    if not 5 <= n <= 11:
        raise GraphError("the census is supported for 5 <= n <= 11")
    level: Level = {Graph(1): []}
    for _ in range(1, n):
        level = _grow(level, n - 5)
    # each member is its own canonical form, so its graph6 is its certificate
    return {format_graph6(g).encode("ascii"): g for g in level if is_uniformly_4_connected(g)[0]}


def _grow(level: Level, maxdeg: int) -> Level:
    """The next level of _oracle, from one labeled child per kept orbit."""
    grown: Level = {}
    for parent, gens in level.items():
        for child in _children(parent, maxdeg, gens):
            form, autos = _labeled(child)
            grown.setdefault(form, autos)
    return grown


def brute_force_uniform(n: int) -> frozenset[bytes]:
    return frozenset(_oracle(n))


def oracle_graphs(n: int) -> tuple[Graph, ...]:
    """Canonical representatives of the oracle's certificates, sorted."""
    cat = _oracle(n)
    return tuple(cat[c] for c in sorted(cat))


# -- generation ---------------------------------------------------------------------


class GenerationResult(namedtuple("GenerationResult", "n_max certs_by_n representatives "
                                   "complete budget_hits soundness_failures")):
    """The generated certificates by order, a representative graph per
    certificate, whether no search budget cut generation short, the number
    of budget hits, and the (certificate, spec repr) pairs whose expansion
    was not uniformly 4-connected."""
    __slots__ = ()

    def all_certs(self) -> frozenset[bytes]:
        out: set = set()
        for certs in self.certs_by_n.values():
            out |= certs
        return frozenset(out)


# A spec's key is a tuple of integers that names it exactly, built from
# vertex bits alone.  Each removed edge lies inside a 3-set, and inside
# {a, b, c} the edge ab is named by the vertex it misses, c: a bijection
# for a fixed 3-set, and exact under an automorphism p, which sends the
# edge ab of X to p(a)p(b), missing p(c) in p(X).  A side, (3-set, missed
# vertices), is keyed by the masks of the two; a delta-1 key is (x mask,
# 1 << y, missed mask) and a delta-2 key its two side keys, ordered by
# side mask.  A raw spec is (side, y) or (side, side); a spec object, its
# edges rebuilt from the missed vertices, is built only when the spec is
# checked.

Side = tuple[tuple[int, int, int], tuple[int, ...]]
SideKey = tuple[int, int]


def _triples(h: Graph) -> list[tuple[int, list[tuple[Side, SideKey]]]]:
    """Each 3-set holding a host edge, as its vertex mask with the sides of
    its nonempty sets of inside edges, smallest first, and their keys: the
    removal choices of one side of a spec."""
    table = []
    for xs in itertools.combinations(range(h.n), 3):
        # the vertices missed by the host edges among ab, ac, bc, in that order
        inside = [m for e, m in zip(itertools.combinations(xs, 2), xs[::-1]) if h.has_edge(*e)]
        if inside:
            xm = (1 << xs[0]) | (1 << xs[1]) | (1 << xs[2])
            sides = []
            for r in range(1, len(inside) + 1):
                for missed in itertools.combinations(inside, r):
                    sides.append(((xs, missed), (xm, sum(1 << m for m in missed))))
            table.append((xm, sides))
    return table


def _keyed_specs(h: Graph, delta2: bool = True) -> Iterator[tuple]:
    """Every spec on h as (key, raw spec): the delta-1 specs, then, when
    delta2, the delta-2 specs, each in enumeration order."""
    table = _triples(h)
    for xm, sides in table:
        for side, (_, mm) in sides:
            for y in range(h.n):
                if not xm >> y & 1:
                    yield (xm, 1 << y, mm), (side, y)
    if delta2:
        # unordered pairs of distinct 3-sets, which share at most 2 vertices:
        # swapping the two sides relabels the two new vertices
        for i, (xm, xsides) in enumerate(table):
            for ym, ysides in table[i + 1:]:
                for sx, kx in xsides:
                    for sy, ky in ysides:
                        yield ((kx, ky) if xm < ym else (ky, kx)), (sx, sy)


def _edges(side: Side) -> tuple[Pair, ...]:
    xs, missed = side
    return tuple(tuple(v for v in xs if v != m) for m in missed)


def _spec(raw: tuple) -> CompatSet:
    side, other = raw
    if type(other) is int:
        return Delta1Spec(side[0], other, _edges(side))
    return Delta2Spec(side[0], other[0], _edges(side), _edges(other))


def _side_image(side: Side, vbit: tuple[int, ...]) -> SideKey:
    (a, b, c), missed = side
    mm = 0
    for m in missed:
        mm |= vbit[m]
    return vbit[a] | vbit[b] | vbit[c], mm


def _key_image(raw: tuple, vbit: tuple[int, ...]) -> tuple:
    """The key of the raw spec's image under one automorphism's vertex bits."""
    side, other = raw
    kx = _side_image(side, vbit)
    if type(other) is int:
        return kx[0], vbit[other], kx[1]
    ky = _side_image(other, vbit)
    return (kx, ky) if kx < ky else (ky, kx)


def generate_catalog(n_max: int, budget: SearchBudget = DEFAULT_BUDGET) -> GenerationResult:
    """Closure of the two bases under compatible expansions, up to n_max.

    Each host's specs are checked once per orbit of its automorphism group.
    An automorphism maps the reduced host of a spec isomorphically onto the
    reduced host of the image spec, so the clauses, every complete path
    sweep, the output's certificate and its uniformity agree across the
    orbit.  Specs are enumerated with integer keys of vertex bits alone,
    which name each removed edge by the 3-set vertex it misses (described
    above _triples), and a spec object is built only for the first spec of
    each orbit, to be checked; the key of each of its images is a few ORs
    of the automorphism's vertex bits, and every image key is mapped to the
    outcome.  The group is closed from the generators that each class's one
    canonical search recorded (_labeled), kept next to its form; the bases
    are labeled like any other class.  A delta-2 key is the unordered pair
    of its side keys.  That is exact: the delta-2 clauses and compatibility
    conditions are symmetric in the two sides, and swapping the sides only
    swaps the labels of the two new vertices, so both orders of a pair have
    the same outcome.  A sweep the budget truncates keeps the first
    max_paths paths in label order, which an automorphism does not
    preserve; so the outcome is reused only when no sweep on the host can
    be truncated (max_len None or at least the host order, and max_paths at
    least the path count of the complete graph on that many vertices), and
    otherwise every spec is checked on its own.  Soundness failures are
    still reported once per failing spec, in enumeration order.
    """
    if not 5 <= n_max <= 10:
        raise GraphError("generation is supported for 5 <= n_max <= 10")
    by_n: dict[int, dict[bytes, Labeled]] = {n: {} for n in range(5, n_max + 1)}
    budget_hits = 0
    failures: list[tuple[bytes, str]] = []
    # the certificate of each labeled graph, so that an output several
    # specs give is labeled once
    certs: dict[Graph, bytes] = {}

    def certify(g: Graph, uniform: bool) -> bytes:
        """g's certificate; a uniform g's class joins the catalog."""
        cert = certs.get(g)
        if cert is None:
            form, gens = _labeled(g)
            cert = certs[g] = format_graph6(form).encode("ascii")
            if uniform and cert not in by_n[g.n]:
                by_n[g.n][cert] = form, gens
        return cert

    def outcome(host: Graph, spec: CompatSet) -> tuple[bytes, bool] | None:
        """None when the spec gives no output, else the output's certificate
        and uniformity."""
        try:
            reduced = _clauses(host, spec)  # host is a base or a checked output: 4-connected
        except SpecInvalid:
            return None
        if not is_quasi_4_compatible(host, spec, budget).compatible:
            return None
        out = _attach(reduced, spec)
        uniform = is_uniformly_4_connected(out)[0]
        return certify(out, uniform), uniform

    for b in map(base_graph, BASE_TAGS):
        if b.n <= n_max:
            certify(b, True)
    for n in range(5, n_max):  # a host of order n_max has no spec
        for cert in sorted(by_n[n]):
            host, gens = by_n[n][cert]
            # each automorphism p of the host as the bit of p(v) by vertex v
            tables = () if _can_truncate(budget, n) else [
                tuple(1 << v for v in p) for p in _group(gens, n)]
            known: dict[tuple, tuple[bytes, bool] | None] = {}
            for key, raw in _keyed_specs(host, delta2=n + 2 <= n_max):
                if key in known:
                    result = known[key]
                else:
                    try:
                        result = outcome(host, _spec(raw))
                    except BudgetExceeded:
                        budget_hits += 1
                        continue
                    for vbit in tables:
                        known[_key_image(raw, vbit)] = result
                if result is not None and not result[1]:
                    failures.append((result[0], repr(_spec(raw))))

    reps = {cert: form for n in range(5, n_max + 1) for cert, (form, _) in by_n[n].items()}
    return GenerationResult(
        n_max=n_max,
        certs_by_n={n: frozenset(by_n[n]) for n in range(5, n_max + 1)},
        representatives=reps,
        complete=budget_hits == 0,
        budget_hits=budget_hits,
        soundness_failures=tuple(failures))


def generate_all(n_max: int, budget: SearchBudget = DEFAULT_BUDGET) -> frozenset[bytes]:
    return generate_catalog(n_max, budget).all_certs()


# -- the comparison report -----------------------------------------------------------


class VerificationReport(namedtuple("VerificationReport", "n_max oracle_by_n generated_by_n "
                                     "only_oracle only_generated decompose_ok soundness_failures "
                                     "complete timings")):
    """The oracle's and generation's certificates by order and their
    differences, the decompose/replay round trip per oracle certificate,
    generation's soundness failures, whether no search budget cut
    generation or a round trip short, and the seconds of each phase."""
    __slots__ = ()

    @property
    def holds(self) -> bool:
        return (self.complete and all(not s for s in self.only_oracle.values())
                and all(not s for s in self.only_generated.values())
                and all(self.decompose_ok.values())
                and not self.soundness_failures)


def verify_theorem(n_max: int, budget: SearchBudget = DEFAULT_BUDGET) -> VerificationReport:
    """Oracle set vs generated set plus a decompose/replay round trip for
    every oracle graph; the characterization holds on this range iff all
    three agree and no search was cut short by the budget."""
    if not 5 <= n_max <= 8:
        raise GraphError("verification is supported for 5 <= n_max <= 8")
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    census = {n: _oracle(n) for n in range(5, n_max + 1)}
    oracle_by_n = {n: frozenset(found) for n, found in census.items()}
    timings["oracle"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cat = generate_catalog(n_max, budget)
    timings["generate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    decompose_ok: dict[bytes, bool] = {}
    complete = cat.complete
    for n in range(5, n_max + 1):
        for cert in sorted(census[n]):
            g = census[n][cert]
            try:
                rebuilt = replay(decompose(g), budget)
                decompose_ok[cert] = canonical_cert(rebuilt) == cert
            except (DecompositionError, StepInvalid, CertMismatch, BudgetExceeded, NotUniform) as exc:
                decompose_ok[cert] = False
                complete &= not isinstance(exc, BudgetExceeded)
    timings["decompose"] = time.perf_counter() - t0
    only_oracle = {}
    only_generated = {}
    for n in range(5, n_max + 1):
        gen = cat.certs_by_n.get(n, frozenset())
        only_oracle[n] = frozenset(oracle_by_n[n] - gen)
        only_generated[n] = frozenset(gen - oracle_by_n[n])
    return VerificationReport(
        n_max=n_max,
        oracle_by_n=oracle_by_n,
        generated_by_n={n: cat.certs_by_n.get(n, frozenset()) for n in range(5, n_max + 1)},
        only_oracle=only_oracle,
        only_generated=only_generated,
        decompose_ok=decompose_ok,
        soundness_failures=cat.soundness_failures,
        complete=complete,
        timings=timings)
