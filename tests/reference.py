"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately naive (plain recursion over neighbor
lists, exhaustive packing / enumeration) and shares no code with the
package's flow, refinement or pruning machinery.
"""

import collections
import itertools
import random

from unicon4 import (Delta1Spec, Delta2Spec, Graph, add_vertex_with_neighbors, canonical_cert,
                     canonical_form, format_graph6, is_uniformly_4_connected)


def all_simple_paths(g: Graph, u: int, v: int):
    out = []

    def dfs(cur, seen):
        last = cur[-1]
        if last == v:
            out.append(tuple(cur))
            return
        for w in g.neighbors(last):
            if w not in seen:
                cur.append(w)
                seen.add(w)
                dfs(cur, seen)
                cur.pop()
                seen.remove(w)

    dfs([u], {u})
    return out


def brute_local_connectivity(g: Graph, u: int, v: int) -> int:
    """Largest set of pairwise internally-disjoint u-v paths, by exhaustive
    packing over the full path list."""
    paths = all_simple_paths(g, u, v)
    interiors = [frozenset(p[1:-1]) for p in paths]
    best = 0

    def extend(count, used, start):
        nonlocal best
        best = max(best, count)
        for i in range(start, len(paths)):
            if not (interiors[i] & used):
                extend(count + 1, used | interiors[i], i + 1)

    extend(0, frozenset(), 0)
    return best


def brute_uniform4(g: Graph) -> bool:
    return all(brute_local_connectivity(g, u, v) == 4
               for u in range(g.n) for v in range(u + 1, g.n))


def all_labeled_graphs(n: int):
    """Every graph on n labeled vertices (2^C(n,2) of them)."""
    slots = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(slots)):
        yield Graph(n, [e for i, e in enumerate(slots) if bits >> i & 1])


def permutations_isomorphic(g: Graph, h: Graph) -> bool:
    """Isomorphism by exhaustive permutation search (small n only)."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    gedges = set(g.edges())
    for perm in itertools.permutations(range(g.n)):
        if all(h.has_edge(perm[u], perm[v]) for u, v in gedges):
            return True
    return False


def leaf_code(adj, order):
    """The upper-triangle adjacency bits of the form that order labels,
    row by row, packed into one int with the first bit the highest: the
    integer the canonical search once compared its leaves by."""
    code = 0
    for i, u in enumerate(order):
        row = adj[u]
        for j in range(i + 1, len(order)):
            code = code << 1 | (row >> order[j] & 1)
    return code


def refine_all_cells(adj, cells):
    """Equitable refinement of the ordered partition cells (bitmasks over
    the rows adj), each round keying every vertex of a cell by its counts
    into every cell and ordering the groups by key: the unpruned form of
    the package's refinement."""
    # cells: list of bitmasks, ordered; refined until equitable
    while True:
        changed = False
        new_cells = []
        for cell in cells:
            if cell & (cell - 1) == 0:  # singleton
                new_cells.append(cell)
                continue
            groups = {}
            for v in (v for v in range(cell.bit_length()) if cell >> v & 1):
                key = tuple((adj[v] & c).bit_count() for c in cells)
                groups[key] = groups.get(key, 0) | (1 << v)
            if len(groups) == 1:
                new_cells.append(cell)
            else:
                changed = True
                new_cells.extend(groups[k] for k in sorted(groups))
        cells = new_cells
        if not changed:
            return cells


def census_without_pruning(n: int):
    """Every uniformly 4-connected graph on n vertices, keyed by certificate,
    grown as the census was before its max-degree and forest rules: every
    one-vertex extension of every class is built, kept when each vertex
    misses at most n - 5 others and each pair has at most 3 common
    neighbors when adjacent (4 when not), and labeled."""
    level = {Graph(1)}
    for k in range(1, n):
        grown = set()
        for g in level:
            for size in range(k + 1):
                for miss in itertools.combinations(range(k), size):
                    child = add_vertex_with_neighbors(g, [v for v in range(k) if v not in miss])
                    if _meets_census_bounds(child, n):
                        grown.add(canonical_form(child))
        level = grown
    return {format_graph6(g).encode("ascii"): g for g in level if is_uniformly_4_connected(g)[0]}


def _meets_census_bounds(g: Graph, n: int) -> bool:
    nbrs = [set(g.neighbors(v)) for v in range(g.n)]
    if any(g.n - 1 - len(s) > n - 5 for s in nbrs):
        return False
    return all(len(nbrs[u] & nbrs[v]) <= (3 if v in nbrs[u] else 4)
               for u, v in itertools.combinations(range(g.n), 2))


def census_levels_without_deletion(n: int):
    """The certificate sets of the census levels of order n, on 1 to n
    vertices, grown with no deletion rule: every one-vertex extension of
    every class is built and kept when it meets _meets_census_bounds, its
    vertices of degree >= 5 induce a forest and no pair of them has five
    internally disjoint paths, as networkx counts them."""
    level = {Graph(1)}
    levels = [{canonical_cert(g) for g in level}]
    for k in range(1, n):
        grown = set()
        for g in level:
            for size in range(k + 1):
                for miss in itertools.combinations(range(k), size):
                    child = add_vertex_with_neighbors(g, [v for v in range(k) if v not in miss])
                    if (_meets_census_bounds(child, n) and _high_degree_forest(child)
                            and not _pair_above_4(child)):
                        grown.add(canonical_form(child))
        level = grown
        levels.append({canonical_cert(g) for g in level})
    return levels


def _pair_above_4(g: Graph) -> bool:
    """Whether two vertices of degree >= 5 have five internally disjoint
    paths, by networkx's flow (an edge between them counts as one)."""
    import networkx as nx
    from networkx.algorithms.connectivity import local_node_connectivity

    h = nx.Graph(g.edges())
    high = [v for v in range(g.n) if g.degree(v) >= 5]
    return any(local_node_connectivity(h, u, v, cutoff=5) >= 5
               for u, v in itertools.combinations(high, 2))


def _high_degree_forest(g: Graph) -> bool:
    """Whether the vertices of degree >= 5 induce a forest: no edge among
    them joins two vertices that earlier edges already connect."""
    root = {v: v for v in range(g.n) if g.degree(v) >= 5}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for u, v in g.edges():
        if u in root and v in root:
            a, b = find(u), find(v)
            if a == b:
                return False
            root[a] = b
    return True


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def random_permuted(rng: random.Random, g: Graph) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def separated_by_3set(g: Graph, x: int, y: int) -> bool:
    """Whether some 3-set of the other vertices splits g - xy into exactly
    two components, each of size >= 2, one holding x and the other y: the
    exhaustive sweep over all C(n - 2, 3) 3-sets, by depth-first search."""
    for s in itertools.combinations([v for v in range(g.n) if v not in (x, y)], 3):
        comp = {}
        for root in range(g.n):
            if root in s or root in comp:
                continue
            comp[root] = root
            stack = [root]
            while stack:
                a = stack.pop()
                for b in g.neighbors(a):
                    if b not in s and b not in comp and {a, b} != {x, y}:
                        comp[b] = root
                        stack.append(b)
        sizes = collections.Counter(comp.values())
        if (len(sizes) == 2 and comp[x] != comp[y]
                and sizes[comp[x]] >= 2 and sizes[comp[y]] >= 2):
            return True
    return False


def spec_image(spec, perm):
    """The spec moved by the vertex permutation perm, as a spec object, in
    the form an enumeration over sorted 3-sets yields: a delta-2 image whose
    x_set sorts after its y_set has its two sides swapped."""
    def moved(edges):
        return [(perm[a], perm[b]) for a, b in edges]

    xs = [perm[v] for v in spec.x_set]
    if isinstance(spec, Delta1Spec):
        return Delta1Spec(xs, perm[spec.y_vertex], moved(spec.ex_edges))
    ys = [perm[v] for v in spec.y_set]
    if sorted(xs) > sorted(ys):
        return Delta2Spec(ys, xs, moved(spec.ey_edges), moved(spec.ex_edges))
    return Delta2Spec(xs, ys, moved(spec.ex_edges), moved(spec.ey_edges))


def reduce_by_sets(g: Graph, x: int, y: int):
    """The edge reduction of xy on neighbour sets: delete the edge, then
    delete each endpoint left with degree 3, x first, completing its
    neighbourhood into a clique; returns the graph rebuilt from its edge
    list with dense ids, and the old-to-new map of the kept vertices."""
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


def _components_without(g: Graph, cut) -> list:
    """The vertex sets of the components of g - cut, by depth-first search."""
    comps, seen = [], set(cut)
    for root in range(g.n):
        if root in seen:
            continue
        comp, stack = {root}, [root]
        while stack:
            for b in g.neighbors(stack.pop()):
                if b not in seen and b not in comp:
                    comp.add(b)
                    stack.append(b)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def least_cut(g: Graph):
    """The vertex connectivity of g and the first vertex cut, in
    lexicographic order, of that size, by trying every vertex set in order
    of size; a complete graph has no cut, so n - 1 and None."""
    for size in range(g.n - 1):
        for cut in itertools.combinations(range(g.n), size):
            if len(_components_without(g, cut)) > 1:
                return size, frozenset(cut)
    return g.n - 1, None


def ends_by_definition(g: Graph):
    """The ends of a non-complete g as (sorted body, sorted cut) pairs, sorted:
    over every vertex cut of the least size that has one, each union of
    some but not all components of g minus the cut is a fragment; the ends
    are the fragments whose body holds no other fragment's body, each with
    the least cut, in lexicographic order, that has it."""
    for size in range(g.n):
        cuts = [(cut, comps) for cut in itertools.combinations(range(g.n), size)
                if len(comps := _components_without(g, cut)) > 1]
        if cuts:
            break
    holders = {}
    for cut, comps in cuts:
        for r in range(1, len(comps)):
            for pick in itertools.combinations(comps, r):
                body = frozenset().union(*pick)
                holders[body] = min(holders.get(body, cut), cut)
    return sorted((sorted(body), list(cut)) for body, cut in holders.items()
                  if not any(other < body for other in holders))
