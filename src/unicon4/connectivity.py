"""Exact vertex connectivity: pairwise local connectivity by unit-capacity
maximum flow with vertex splitting, global connectivity, the uniform-4
test with explicit witnesses, and minimum-cut / fragment / end machinery.

Everything here is exact and deterministic; graphs are desk scale (n <= 16)
so exhaustive cut sweeps are deliberate, not an oversight.

The flow kernel keeps its residual as per-vertex bitmasks and explores it
breadth first in increasing vertex order, so the paths it returns, and the
witnesses built from them, depend on the graph alone; a test pins them.

Local connectivity counts before it flows, in the one kernel `_local_conn`
that every count of internally disjoint paths goes through, chording's
detours included.  It counts u-v paths inside a vertex mask, the edge uv
only when asked to.  Every other path leaves u and enters v through its
own neighbour in the mask, which caps the count; by Menger's theorem some
maximum family holds the edge and u-c-v for every common neighbour c, so
these are counted first.  The other paths run between the two
neighbourhoods inside the mask without u, v and the common neighbours;
a greedy search finds shortest ones there, one at a time, deleting each.
Its count is a lower bound, exact when it is 0; only when it falls short
of the cap does a flow run, uv barred.
Global connectivity probes only the pairs of `_probe_pairs`: a minimum cut
either misses a vertex v of minimum degree and separates it from a
non-neighbour, or contains v and separates two neighbours of v.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .graph_core import Graph, GraphError, _mask_bits

Pair = tuple[int, int]


class CutWitness(namedtuple("CutWitness", "vertices")):
    """A vertex cut, a frozenset, certifying connectivity below 4."""
    __slots__ = ()


class FanWitness(namedtuple("FanWitness", "pair paths")):
    """Five internally-disjoint paths, vertex tuples, certifying a 5-connected pair."""
    __slots__ = ()


Witness = CutWitness | FanWitness


class ConnectivityReport(namedtuple("ConnectivityReport", "kappa local uniform4 witness")):
    """kappa, the local connectivities as row tuples, the verdict and its Witness or None."""
    __slots__ = ()


class Fragment(namedtuple("Fragment", "cut body")):
    """A minimum cut and a union of some but not all components of g - cut, as frozensets."""
    __slots__ = ()


class End(namedtuple("End", "fragment")):
    """An inclusion-minimal Fragment."""
    __slots__ = ()


# -- unit-capacity vertex flow ----------------------------------------------


def _flow_paths(adj: Sequence[int], s: int, t: int, limit: int,
                alive: int, banned: Pair | None) -> list[list[int]]:
    """Internally-disjoint s-t paths by augmentation on the split digraph.

    Stops after `limit` paths.  `alive` masks usable vertices (must include
    s and t); `banned` suppresses one undirected edge.

    Each vertex v splits into in(v) and out(v).  The residual is kept as
    bitmasks: fout[a] has bit b and fin[b] has bit a while the arc
    out(a) -> in(b) carries flow, and `through` marks the interior vertices
    whose in(v) -> out(v) arc does.  Every augmentation is one breadth-first
    search over the residual, visiting neighbours in increasing order; a
    vertex of a path carries one unit, so fin[v] names the one arc to cancel.
    The paths and their order are part of the contract, since witnesses are
    built from them: test_flow_paths_order_is_pinned fixes them.
    """
    n = len(adj)
    bu, bv = banned if banned is not None else (-1, -1)
    fout = [0] * n
    fin = [0] * n
    through = 0
    # a node is v << 1 for in(v) and v << 1 | 1 for out(v)
    start = s << 1 | 1
    count = 0
    while count < limit:
        prev = [-1] * (2 * n)
        seen_in, seen_out = 0, 1 << s
        queue = [start]
        found = False
        while queue and not found:
            nxt = []
            for node in queue:
                v = node >> 1
                if node & 1:  # out(v): cross an edge, or cancel v's pass-through
                    step = adj[v] & alive & ~fout[v] & ~seen_in
                    if v == bu:
                        step &= ~(1 << bv)
                    elif v == bv:
                        step &= ~(1 << bu)
                    while step:
                        low = step & -step
                        step ^= low
                        w = low.bit_length() - 1
                        seen_in |= low
                        prev[w << 1] = node
                        if w == t:
                            found = True
                            break
                        nxt.append(w << 1)
                    if found:
                        break
                    if through >> v & 1 and not seen_in >> v & 1:
                        seen_in |= 1 << v
                        prev[v << 1] = node
                        nxt.append(v << 1)
                else:  # in(v): pass through v, or cancel the flow into v
                    if not (through | seen_out) >> v & 1:
                        seen_out |= 1 << v
                        prev[node | 1] = node
                        nxt.append(node | 1)
                    step = fin[v] & ~seen_out
                    while step:
                        low = step & -step
                        step ^= low
                        a = low.bit_length() - 1
                        seen_out |= low
                        prev[a << 1 | 1] = node
                        nxt.append(a << 1 | 1)
            queue = nxt
        if not found:
            break
        count += 1
        seq = [t << 1]
        while seq[-1] != start:
            seq.append(prev[seq[-1]])
        seq.reverse()
        # apply: toggle arcs along the alternating node sequence
        for x, y in zip(seq, seq[1:]):
            a, b = x >> 1, y >> 1
            if x & 1:  # out(a) -> in(b)
                if a == b:
                    through &= ~(1 << a)  # cancel a's pass-through
                elif fout[b] >> a & 1:
                    fout[b] &= ~(1 << a)
                    fin[a] &= ~(1 << b)
                else:
                    fout[a] |= 1 << b
                    fin[b] |= 1 << a
            elif a == b:  # in(a) -> out(a)
                through |= 1 << a
            else:  # in(a) -> out(b) cancels the flow on out(b) -> in(a)
                fout[b] &= ~(1 << a)
                fin[a] &= ~(1 << b)

    # decompose into vertex paths
    paths = []
    for w in _mask_bits(fout[s]):
        path = [s, w]
        while w != t:
            rest = fout[w]
            if not rest:
                raise RuntimeError(f"flow from {s} to {t} stops at vertex {w}")
            w = (rest & -rest).bit_length() - 1
            path.append(w)
        paths.append(path)
    return paths


def _local_conn(adj: Sequence[int], u: int, v: int, cap: int, alive: int, direct: bool) -> int:
    """min(cap, the number of internally disjoint u-v paths inside alive),
    the edge uv counted only when direct; alive must include u and v.

    The edge and the common neighbours are counted first; the greedy stage
    then adds a lower bound on the rest, which settles the count when it
    reaches the cap or finds no path at all.  Only a shortfall flows."""
    hood_u = adj[u] & alive & ~(1 << v)
    hood_v = adj[v] & alive & ~(1 << u)
    edge = 1 if direct and adj[u] >> v & 1 else 0
    cap = min(cap, hood_u.bit_count() + edge, hood_v.bit_count() + edge)
    common = hood_u & hood_v
    known = edge + common.bit_count()
    if known >= cap:
        return cap
    alive &= ~common
    inner = alive & ~(1 << u) & ~(1 << v)
    found = _greedy_paths(adj, hood_u & ~common, hood_v & ~common, cap - known, inner)
    if known + found >= cap or not found:
        return known + found
    return known + len(_flow_paths(adj, u, v, cap - known, alive, (u, v)))


def _greedy_paths(adj: Sequence[int], starts: int, goals: int, limit: int, inner: int) -> int:
    """Up to limit vertex-disjoint starts-goals paths inside inner, found one
    at a time: each is a shortest one, grown in breadth-first layers of
    bitmasks, traced back through the lowest neighbour in each layer, and
    its vertices deleted.  A lower bound on the maximum, exact when 0."""
    found = 0
    while found < limit:
        layers = []
        frontier = starts & inner
        seen = frontier
        while not frontier & goals:
            if not frontier:
                return found
            layers.append(frontier)
            grow = 0
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                grow |= adj[low.bit_length() - 1]
            frontier = grow & inner & ~seen
            seen |= frontier
        step = frontier & goals
        path = step & -step
        cur = path.bit_length() - 1
        for layer in reversed(layers):
            step = adj[cur] & layer
            low = step & -step
            cur = low.bit_length() - 1
            path |= low
        inner &= ~path
        found += 1
    return found


# -- public operations -------------------------------------------------------


def local_connectivity(g: Graph, u: int, v: int, cap: int | None = None) -> int:
    """Maximum number of internally-disjoint u-v paths (exact Menger value).

    With a positive `cap`, stops counting at cap (returns min(value, cap)).
    """
    _check_pair(g, u, v, "cap", cap)
    return _local_conn(g._adj, u, v, g.n if cap is None else cap, (1 << g.n) - 1, True)


def _check_pair(g: Graph, u: int, v: int, name: str = "", count: int | None = None) -> None:
    if u == v or not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError(f"expected two distinct vertices in range, got {u} and {v}")
    if count is not None and count < 1:
        raise GraphError(f"{name} must be positive, got {count}")


def disjoint_path_fan(g: Graph, u: int, v: int, k: int) -> tuple[tuple[int, ...], ...] | None:
    """k internally-disjoint u-v paths if they exist, else None.

    For adjacent pairs the edge itself is one of the paths.
    """
    _check_pair(g, u, v, "k", k)
    # barring uv is a no-op when it is not an edge
    paths = [[u, v]] if g.has_edge(u, v) else []
    paths += _flow_paths(g._adj, u, v, k - len(paths), (1 << g.n) - 1, (u, v))
    return tuple(tuple(p) for p in paths) if len(paths) == k else None


def _probe_pairs(g: Graph):
    """The non-adjacent pairs whose least local connectivity is kappa(g).

    With v a vertex of minimum degree: v against each non-neighbour, then
    each non-adjacent pair inside N(v) (Esfahanian and Hakimi 1984).  A
    minimum cut S either misses v, and then separates v from some
    non-neighbour, or contains v, and then v has neighbours in two
    components of g - S.  g must not be complete.
    """
    full = (1 << g.n) - 1
    v = min(range(g.n), key=g.degree)
    hood = g.adj_mask(v)
    for w in _mask_bits(full & ~hood & ~(1 << v)):
        yield v, w
    for a in _mask_bits(hood):
        for b in _mask_bits(hood & ~g.adj_mask(a) & ~((2 << a) - 1)):
            yield a, b


def _kappa(g: Graph, cap: int) -> int:
    """min(cap, kappa(g)) from one pass over the probe pairs, each capped
    at the least value seen so far."""
    if g.is_complete():
        return min(cap, g.n - 1)
    best, full = cap, (1 << g.n) - 1
    for u, v in _probe_pairs(g):
        best = _local_conn(g._adj, u, v, best, full, True)
        if best == 0:
            break
    return best


def vertex_connectivity(g: Graph) -> int:
    """Global vertex connectivity; n-1 for complete graphs by convention."""
    if g.n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    return _kappa(g, g.n)


def is_k_connected(g: Graph, k: int) -> bool:
    if g.n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    if g.n <= k or g.min_degree() < k:
        return False
    return _kappa(g, k) >= k


def _components(adj: Sequence[int], alive: int) -> list[int]:
    comps = []
    rest = alive
    while rest:
        seed = rest & -rest
        comp = seed
        frontier = seed
        while frontier:
            grow = 0
            for v in _mask_bits(frontier):
                grow |= adj[v]
            grow &= alive & ~comp
            comp |= grow
            frontier = grow
        comps.append(comp)
        rest &= ~comp
    return comps


def is_uniformly_4_connected(g: Graph) -> tuple[bool, Witness | None]:
    """True iff every vertex pair has local connectivity exactly 4.

    On failure the witness is the first least vertex cut in lexicographic
    order, if below 4, or else the five-fan of the first pair above 4.
    """
    if g.n < 5:
        raise GraphError("a graph on fewer than 5 vertices cannot be 4-connected")
    if not is_k_connected(g, 4):
        return False, _witness(g, _kappa(g, 4), None)
    # every pair now has local connectivity >= 4; look for a pair above 4
    above = _pair_above_4(g._adj)
    if above is not None:
        return False, _witness(g, 4, above)
    return True, None


def _pair_above_4(adj: Sequence[int]) -> Pair | None:
    """The first pair u < v, in lexicographic order, with five internally
    disjoint paths in the graph with these rows, or None.  A pair needs
    five neighbours each for that, the edge uv counted as a path, so only
    pairs of degree >= 5 are counted."""
    full = (1 << len(adj)) - 1
    high = [v for v, row in enumerate(adj) if row.bit_count() >= 5]
    for i, u in enumerate(high):
        for v in high[i + 1:]:
            if _local_conn(adj, u, v, 5, full, True) >= 5:
                return u, v
    return None


def _witness(g: Graph, kappa: int, above: Pair | None) -> Witness:
    """The witness that g is not uniformly 4-connected, from kappa(g), or a
    bound >= 4 on it, and the first pair above 4: below 4, the first cut of
    size kappa in lexicographic order, and no smaller cut exists; otherwise
    the five-fan of the pair."""
    if kappa >= 4:
        fan = disjoint_path_fan(g, *above, 5)
        if fan is None:
            raise RuntimeError(f"no five-fan for pair {above} of local connectivity >= 5")
        return FanWitness(above, fan)
    for cut, _ in _cuts_of_size(g, kappa):
        return CutWitness(cut)
    raise RuntimeError(f"no vertex cut of size {kappa}")


def _cuts_of_size(g: Graph, size: int):
    """Every vertex cut of the given size, each with the component masks of
    g minus it, exhaustively and in lexicographic order."""
    full = (1 << g.n) - 1
    for cut in itertools.combinations(range(g.n), size):
        alive = full
        for c in cut:
            alive &= ~(1 << c)
        comps = _components(g._adj, alive)
        if len(comps) > 1:
            yield frozenset(cut), comps


def minimum_cuts(g: Graph) -> list[frozenset]:
    """Every vertex cut of minimum size, exhaustively."""
    if g.is_complete():
        raise GraphError("complete graphs have no vertex cut")
    return [cut for cut, _ in _cuts_of_size(g, vertex_connectivity(g))]


def fragments(g: Graph, cut: Iterable[int]) -> list[Fragment]:
    """All unions of some but not all components of g - cut."""
    cut = frozenset(g._vertex(c) for c in cut)
    kappa = vertex_connectivity(g)
    if len(cut) != kappa:
        raise GraphError(f"cut size {len(cut)} is not the minimum {kappa}")
    comps = _components(g._adj, ((1 << g.n) - 1) & ~sum(1 << c for c in cut))
    if len(comps) < 2:
        raise GraphError("given set is not a vertex cut")
    out = []
    for r in range(1, len(comps)):
        for pick in itertools.combinations(comps, r):
            body = 0
            for m in pick:
                body |= m
            out.append(Fragment(cut, frozenset(_mask_bits(body))))
    out.sort(key=lambda f: sorted(f.body))
    return out


def ends(g: Graph) -> list[End]:
    """Inclusion-minimal fragment bodies over all minimum cuts."""
    if g.is_complete():
        raise GraphError("complete graphs have no vertex cut")
    return _ends(g, vertex_connectivity(g))


def _ends(g: Graph, kappa: int) -> list[End]:
    """The ends of a non-complete g whose connectivity kappa is known.

    Every fragment holds a single component of its cut, which is itself a
    fragment, so the minimal fragments are the minimal single components.
    A component's neighbourhood lies in its cut and already separates it
    from the other components, so it is the whole cut: each end has one."""
    holder = {comp: cut for cut, comps in _cuts_of_size(g, kappa) for comp in comps}
    minimal = [b for b in holder if not any(o & b == o and o != b for o in holder)]
    return [End(Fragment(holder[b], frozenset(_mask_bits(b)))) for b in sorted(minimal, key=_mask_bits)]


def connectivity_report(g: Graph) -> ConnectivityReport:
    """Global and all-pairs local connectivity plus the uniform-4 verdict."""
    if g.n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    # every pair's local connectivity lies between kappa and the lesser
    # degree, an adjacent pair's too, since kappa(g - uv) >= kappa - 1; so a
    # pair whose lesser degree is kappa needs no count
    kappa = _kappa(g, g.n)
    deg = [row.bit_count() for row in g._adj]
    local = [[0] * g.n for _ in range(g.n)]
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in range(u + 1, g.n):
            k = kappa if min(deg[u], deg[v]) == kappa else _local_conn(g._adj, u, v, g.n, full, True)
            local[u][v] = local[v][u] = k
    # the verdict and witness of is_uniformly_4_connected, read off the matrix;
    # a complete graph below 4 has no cut to show
    above = next(((u, v) for u in range(g.n) for v in range(u + 1, g.n) if local[u][v] >= 5), None)
    uniform4 = kappa >= 4 and above is None
    witness = None if uniform4 or kappa < 4 and g.is_complete() else _witness(g, kappa, above)
    return ConnectivityReport(kappa, tuple(tuple(r) for r in local), uniform4, witness)
