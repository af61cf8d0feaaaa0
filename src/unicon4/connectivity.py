"""Exact vertex connectivity: pairwise local connectivity by unit-capacity
maximum flow with vertex splitting, global connectivity, the uniform-4
test with explicit witnesses, and minimum-cut / fragment / end machinery.

Everything here is exact and deterministic; graphs are desk scale (n <= 16)
so exhaustive cut sweeps are deliberate, not an oversight.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .graph_core import Graph, GraphError, _mask_bits

Pair = Tuple[int, int]


@dataclass(frozen=True)
class CutWitness:
    """A vertex cut certifying connectivity below 4."""
    vertices: frozenset


@dataclass(frozen=True)
class FanWitness:
    """Five internally-disjoint paths certifying a 5-connected pair."""
    pair: Pair
    paths: Tuple[Tuple[int, ...], ...]


Witness = Union[CutWitness, FanWitness]


@dataclass(frozen=True)
class ConnectivityReport:
    kappa: int
    local: Tuple[Tuple[int, ...], ...]
    uniform4: bool
    witness: Optional[Witness]


@dataclass(frozen=True)
class Fragment:
    cut: frozenset
    body: frozenset


@dataclass(frozen=True)
class End:
    fragment: Fragment


# -- unit-capacity vertex flow ----------------------------------------------


def _flow_paths(adj: Sequence[int], s: int, t: int, limit: int,
                alive: int, banned: Optional[Pair]) -> List[List[int]]:
    """Internally-disjoint s-t paths by augmentation on the split digraph.

    Stops after `limit` paths.  `alive` masks usable vertices (must include
    s and t); `banned` suppresses one undirected edge.
    """
    bu, bv = banned if banned is not None else (-1, -1)
    vert_used = 0  # mask of interior vertices carrying flow
    edge_flow: Dict[Pair, int] = {}  # directed (u,v) -> 1

    def residual_bfs() -> Optional[List[Pair]]:
        # nodes: ("out", u) and ("in", v) encoded as (u, 1) / (v, 0)
        start = (s, 1)
        prev: Dict[Tuple[int, int], Tuple[int, int]] = {start: start}
        queue = [start]
        while queue:
            nxt = []
            for node in queue:
                v, side = node
                if side == 1:  # out(v): cross an edge, or cancel v's vertex flow
                    nbrs = adj[v] & alive
                    for w in _mask_bits(nbrs):
                        if (v, w) in edge_flow:
                            continue
                        if v == bu and w == bv or v == bv and w == bu:
                            continue
                        tgt = (w, 0)
                        if tgt not in prev:
                            prev[tgt] = node
                            if w == t:
                                # walk back to a node sequence
                                seq = [tgt]
                                while seq[-1] != start:
                                    seq.append(prev[seq[-1]])
                                seq.reverse()
                                return seq
                            nxt.append(tgt)
                    if vert_used >> v & 1:
                        tgt = (v, 0)
                        if tgt not in prev:
                            prev[tgt] = node
                            nxt.append(tgt)
                else:  # in(v): pass through v, or cancel an incoming edge flow
                    if not vert_used >> v & 1:
                        tgt = (v, 1)
                        if tgt not in prev:
                            prev[tgt] = node
                            nxt.append(tgt)
                    for (a, b) in edge_flow:
                        if b == v:
                            tgt = (a, 1)
                            if tgt not in prev:
                                prev[tgt] = node
                                nxt.append(tgt)
            queue = nxt
        return None

    count = 0
    while count < limit:
        seq = residual_bfs()
        if seq is None:
            break
        count += 1
        # apply: toggle arcs along the alternating node sequence
        for (a, sa), (b, sb) in zip(seq, seq[1:]):
            if sa == 1:  # out(a) -> in(b)
                if a == b:
                    vert_used &= ~(1 << a)  # cancel a's pass-through
                elif (b, a) in edge_flow:
                    del edge_flow[(b, a)]
                else:
                    edge_flow[(a, b)] = 1
            else:  # in(a) -> out(b)
                if a == b:
                    vert_used |= 1 << a
                else:
                    del edge_flow[(b, a)]

    # decompose into vertex paths
    paths = []
    starts = [w for (a, w) in edge_flow if a == s]
    for w in sorted(starts):
        path = [s, w]
        while path[-1] != t:
            cur = path[-1]
            nxt = next(b for (a, b) in edge_flow if a == cur)
            path.append(nxt)
        paths.append(path)
    return paths


def _local_conn(adj: Sequence[int], n: int, u: int, v: int, cap: int,
                alive: Optional[int] = None) -> int:
    if alive is None:
        alive = (1 << n) - 1
    if adj[u] >> v & 1:
        k = len(_flow_paths(adj, u, v, cap - 1 if cap <= n else n, alive, (u, v)))
        return 1 + k
    return len(_flow_paths(adj, u, v, cap if cap <= n else n, alive, None))


# -- public operations -------------------------------------------------------


def local_connectivity(g: Graph, u: int, v: int, cap: Optional[int] = None) -> int:
    """Maximum number of internally-disjoint u-v paths (exact Menger value).

    With `cap`, stops counting at cap (returns min(value, cap)).
    """
    if u == v:
        raise GraphError("local connectivity needs two distinct vertices")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise GraphError("vertex out of range")
    limit = g.n if cap is None else cap
    return _local_conn(g._adj, g.n, u, v, limit)


def disjoint_path_fan(g: Graph, u: int, v: int, k: int) -> Optional[Tuple[Tuple[int, ...], ...]]:
    """k internally-disjoint u-v paths if they exist, else None.

    For adjacent pairs the edge itself is one of the paths.
    """
    alive = (1 << g.n) - 1
    if g.has_edge(u, v):
        paths = _flow_paths(g._adj, u, v, k - 1, alive, (u, v))
        if len(paths) < k - 1:
            return None
        paths = [[u, v]] + paths
    else:
        paths = _flow_paths(g._adj, u, v, k, alive, None)
        if len(paths) < k:
            return None
    return tuple(tuple(p) for p in paths)


def vertex_connectivity(g: Graph) -> int:
    """Global vertex connectivity; n-1 for complete graphs by convention."""
    if g.n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    if g.is_complete():
        return g.n - 1
    best = g.n
    for u in range(g.n):
        nonadj = ~g.adj_mask(u) & ((1 << g.n) - 1) & ~(1 << u)
        for v in _mask_bits(nonadj):
            if v <= u:
                continue
            best = min(best, _local_conn(g._adj, g.n, u, v, best))
            if best == 0:
                return 0
    return best


def is_k_connected(g: Graph, k: int) -> bool:
    if g.n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    if g.n <= k:
        return False
    if g.is_complete():
        return True
    for u in range(g.n):
        nonadj = ~g.adj_mask(u) & ((1 << g.n) - 1) & ~(1 << u)
        for v in _mask_bits(nonadj):
            if v > u and _local_conn(g._adj, g.n, u, v, k) < k:
                return False
    return True


def _components(adj: Sequence[int], alive: int) -> List[int]:
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


def is_uniformly_4_connected(g: Graph) -> Tuple[bool, Optional[Witness]]:
    """True iff every vertex pair has local connectivity exactly 4.

    On failure the witness is a vertex cut of size < 4, or a pair together
    with five internally-disjoint paths between it.
    """
    if g.n < 5:
        raise GraphError("a graph on fewer than 5 vertices cannot be 4-connected")
    if not is_k_connected(g, 4):
        cut = _some_small_cut(g, 4)
        return False, CutWitness(frozenset(cut))
    # every pair now has local connectivity >= 4; look for a pair above 4
    for u in range(g.n):
        if g.degree(u) < 5:
            continue
        for v in range(u + 1, g.n):
            if g.degree(v) < 5:
                continue
            if _local_conn(g._adj, g.n, u, v, 5) >= 5:
                fan = disjoint_path_fan(g, u, v, 5)
                if fan is None:
                    raise RuntimeError(f"no five-fan for pair ({u},{v}) of local connectivity >= 5")
                return False, FanWitness((u, v), fan)
    return True, None


def _some_small_cut(g: Graph, below: int) -> frozenset:
    """A vertex cut of size < below; assumes one exists."""
    full = (1 << g.n) - 1
    for size in range(below):
        for cut in itertools.combinations(range(g.n), size):
            alive = full
            for c in cut:
                alive &= ~(1 << c)
            if len(_components(g._adj, alive)) > 1:
                return frozenset(cut)
    raise AssertionError("no cut found below the requested size")


def minimum_cuts(g: Graph) -> List[frozenset]:
    """Every vertex cut of minimum size, exhaustively."""
    if g.is_complete():
        raise GraphError("complete graphs have no vertex cut")
    kappa = vertex_connectivity(g)
    full = (1 << g.n) - 1
    cuts = []
    for cut in itertools.combinations(range(g.n), kappa):
        alive = full
        for c in cut:
            alive &= ~(1 << c)
        if len(_components(g._adj, alive)) > 1:
            cuts.append(frozenset(cut))
    return cuts


def fragments(g: Graph, cut: frozenset) -> List[Fragment]:
    """All unions of some but not all components of g - cut."""
    kappa = vertex_connectivity(g)
    if len(cut) != kappa:
        raise GraphError(f"cut size {len(cut)} is not the minimum {kappa}")
    alive = (1 << g.n) - 1
    for c in cut:
        alive &= ~(1 << c)
    comps = _components(g._adj, alive)
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


def ends(g: Graph) -> List[End]:
    """Inclusion-minimal fragment bodies over all minimum cuts."""
    frags = []
    for cut in minimum_cuts(g):
        frags.extend(fragments(g, cut))
    bodies = {f.body for f in frags}
    minimal = [b for b in bodies if not any(o < b for o in bodies)]
    out = []
    for body in sorted(minimal, key=sorted):
        holder = min((f for f in frags if f.body == body), key=lambda f: sorted(f.cut))
        out.append(End(holder))
    return out


def connectivity_report(g: Graph) -> ConnectivityReport:
    """Global and all-pairs local connectivity plus the uniform-4 verdict."""
    if g.n < 2:
        raise GraphError("connectivity needs at least 2 vertices")
    local = [[0] * g.n for _ in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            k = _local_conn(g._adj, g.n, u, v, g.n)
            local[u][v] = local[v][u] = k
    kappa = vertex_connectivity(g)
    if g.n >= 5:
        uniform, witness = is_uniformly_4_connected(g)
    else:
        uniform, witness = False, None
        if kappa < 4:
            witness = CutWitness(frozenset(_some_small_cut(g, 4))) if not g.is_complete() else None
    return ConnectivityReport(kappa, tuple(tuple(r) for r in local), uniform, witness)
