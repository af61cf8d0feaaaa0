"""Independent reference implementations used as oracles by the tests.

Everything here is deliberately naive (plain recursion over neighbor
lists, exhaustive packing / enumeration) and shares no code with the
package's flow, refinement or pruning machinery.
"""

import collections
import itertools
import random

from unicon4 import Graph


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
