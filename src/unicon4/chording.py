"""Path predicates underlying quasi-4-compatibility.

A path is *quasi 3-circuit chording* when some subpath (any consecutive
segment, including the whole path and single edges) admits three
internally-disjoint detour paths between its endpoints that avoid every
other vertex of the host path.  The e-plus variant asks whether a path
acquires that property once a missing edge e is added.  A *quasi chord*
joins two non-consecutive vertices of some cycle while meeting the cycle
only at its endpoints.

The existence queries quantify over all simple u-v paths, in (length, lex)
order.  Enumeration is exhaustive but budgeted: a truncated search that
found no witness raises BudgetExceeded instead of answering False.  Most
paths are settled without a flow: every detour but a direct edge leaves
each end through its own off-path neighbour, so the off-path degrees of a
subpath's ends (plus the direct edge) cap its detours, and a path on which
no cap reaches the level a predicate reads is skipped.  A sweep that the
budget cannot truncate lists nothing: it builds its paths one length at a
time, stops at the first hit, and for the two 3-circuit predicates drops
every prefix on which fewer than two vertices can still reach a cap of 3.

A whole sweep is settled first from degrees: off-path degree is at most
degree minus path neighbours, of which an end has one or more, an interior
vertex two or more, and each end of a chord p[i]p[j] one more.  So a cap of
3 (off-path degree 3 at two vertices, or 2 at both ends of a chord) needs
two vertices of degree >= 4 among u, v or >= 5 elsewhere, in g, or in g + e
for e-plus; a quasi chord needs degree >= 3 at u and v.  A settled sweep
enumerates paths only to tell "no path" from "unresolved", so it lists
none unless the budget can cut short that very sweep: one whose budget is
at least the Bregman bound on its u-v path count (each path u...v, closed
by v -> u, is a permutation counted by the permanent of A + I plus the
entry (v, u)) cannot be truncated.  Only a sweep the budget can truncate
lists its paths, through one cached enumeration.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from collections.abc import Callable, Iterator, Sequence

from .connectivity import _check_pair, _flow_paths, _local_conn
from .graph_core import Graph, GraphError, _mask_bits

PathVerts = tuple[int, ...]
Pair = tuple[int, int]


class BudgetExceeded(RuntimeError):
    """Search space exceeded the budget; the query is unresolved, not false."""


class SearchBudget(namedtuple("SearchBudget", "max_paths max_len")):
    """max_paths caps the paths of one sweep; max_len caps the vertices per
    path, None meaning the graph order."""
    __slots__ = ()

    def __new__(cls, max_paths: int = 1_000_000, max_len: int | None = None):
        fields = (max_paths,) if max_len is None else (max_paths, max_len)
        if any(not isinstance(f, int) or isinstance(f, bool) or f <= 0 for f in fields):
            raise GraphError("search budget fields must be positive integers")
        return super().__new__(cls, max_paths, max_len)

    @classmethod
    def _make(cls, fields):  # so that _replace checks its fields too
        return cls(*fields)


DEFAULT_BUDGET = SearchBudget()


class ChordingWitness(namedtuple("ChordingWitness", "path subpath_ends fan")):
    """A path, the ends (a, b) of its chorded subpath, and three a-b paths around it."""
    __slots__ = ()


def validate_path(g: Graph, path: Sequence[int]) -> PathVerts:
    p = tuple(path)
    if len(p) < 2:
        raise GraphError("a path needs at least one edge")
    if len(set(p)) != len(p):
        raise GraphError(f"repeated vertex in path {p}")
    for a, b in zip(p, p[1:]):
        if not (0 <= a < g.n and 0 <= b < g.n) or not g.has_edge(a, b):
            raise GraphError(f"consecutive pair ({a},{b}) not an edge")
    return p


# -- enumeration of simple paths ---------------------------------------------


@functools.lru_cache(maxsize=512)
def _simple_paths(g: Graph, u: int, v: int, max_paths: int,
                  max_len: int) -> tuple[tuple[PathVerts, ...], bool]:
    """All simple u-v paths sorted by (length, lex); second item is False
    when the budget truncated the sweep."""
    paths: list[PathVerts] = []
    complete = True
    adj = g._adj
    target_bit = 1 << v

    def dfs(stack: list[int], seen: int) -> bool:
        nonlocal complete
        here = stack[-1]
        nbrs = adj[here] & ~seen
        if nbrs & target_bit and len(stack) + 1 <= max_len:
            if len(paths) >= max_paths:
                complete = False
                return False
            paths.append(tuple(stack) + (v,))
        nbrs &= ~target_bit
        if len(stack) + 1 >= max_len:  # no room for another interior vertex
            if nbrs:
                complete = False
            return True
        for w in _mask_bits(nbrs):
            stack.append(w)
            ok = dfs(stack, seen | (1 << w))
            stack.pop()
            if not ok:
                return False
        return True

    dfs([u], 1 << u)
    paths.sort(key=lambda p: (len(p), p))
    return tuple(paths), complete


def _paths_in_order(adj: Sequence[int], u: int, v: int,
                    screen: Sequence[int] | None = None) -> Iterator[PathVerts]:
    """The simple u-v paths of the graph of adj in _simple_paths' order, by
    (length, lex), with no budget and nothing sorted: the prefixes of each
    length are kept in lex order and extended through ascending neighbours,
    and a path is yielded as its last prefix is built.

    Given screen, the rows of a supergraph of adj, a prefix P is dropped with
    its extensions once fewer than two vertices can still reach "off-path
    degree + chord flag >= 3" in screen on a u-v path through P, which
    _may_reach(screen, p, 3) needs: a vertex x of P reaches at most
    |N(x) - P| + [x has a neighbour in P not next to it on P] - [x is P's
    last vertex] (the path leaves that one through a neighbour off P, and
    any later neighbour on the path leaves the off-path set as it flags a
    chord), v at most |N(v) - P| + [two of N(v) lie in P] - [none does], and
    a vertex off P at most its degree - 2, so only at degree >= 5.  Adding w
    to P leaves every bound alone but those of w, v and w's earlier
    neighbours on P that are not P's last vertex, whose bounds become
    |N(x) - P - w| + 1, so strong, the vertices of P at >= 3, is kept as a mask.
    """
    target = 1 << v
    if adj[u] & target:
        yield u, v
    if screen is None:
        level = [((u,), 1 << u, 0)]
    else:
        high = sum(1 << x for x, row in enumerate(screen) if row.bit_count() >= 5) & ~target
        level = [((u,), 1 << u, (screen[u].bit_count() >= 4) << u)]
    while level:
        grown = []
        for p, seen, strong in level:
            last = p[-1]
            for w in _mask_bits(adj[last] & ~seen & ~target):
                mask = seen | 1 << w
                kept = strong
                if screen is not None:
                    back = screen[w] & seen & ~(1 << last)
                    for x in _mask_bits(back & strong):
                        if (screen[x] & ~mask).bit_count() < 2:
                            kept &= ~(1 << x)
                    if (screen[w] & ~mask).bit_count() + (back != 0) >= 4:
                        kept |= 1 << w
                    reach = kept.bit_count() + (high & ~mask).bit_count()
                    if reach < 2:
                        on = screen[v] & mask
                        reach += (screen[v] & ~mask).bit_count() + (on & (on - 1) != 0) - (on == 0) >= 3
                        if reach < 2:
                            continue
                q = p + (w,)
                if adj[w] & target:
                    yield q + (v,)
                grown.append((q, mask, kept))
        level = grown


def _kn_path_count(n: int) -> int:
    """The number of simple u-v paths in K_n, the most that any graph on
    n vertices has between two of its vertices."""
    return sum(math.factorial(n - 2) // math.factorial(k) for k in range(n - 1))


def _path_bound(adj: Sequence[int], u: int, v: int) -> float:
    """An upper bound on the number of simple u-v paths in the graph of adj.

    A path u = x0 ... xk = v maps one-to-one to the permutation that sends
    each x_i to x_{i+1} and v to u and fixes every other vertex.  That
    permutation is a nonzero term of the permanent of A + I with a 1 added
    at (v, u), so the count is at most that permanent, and by Bregman's
    theorem at most the product over rows x of (r_x!)^(1/r_x), where r_x is
    deg(x) + 1, one more for x = v when v is not adjacent to u.  The sum of
    logs gets an upward margin, so rounding can only err toward enumerating.
    """
    total = 0.0
    for x, mask in enumerate(adj):
        r = mask.bit_count() + 1 + (x == v and not mask >> u & 1)
        total += math.lgamma(r + 1) / r
    total = total * (1 + 1e-9) + 1e-9
    return math.exp(total) if total < 700 else math.inf


def _can_truncate(budget: SearchBudget, n: int,
                  ends: tuple[Sequence[int], int, int] | None = None) -> bool:
    """Whether the budget can cut short some path sweep on n vertices or,
    given ends = (adj, u, v), the u-v sweep of that graph."""
    if budget.max_len is not None and budget.max_len < n:
        return True
    if budget.max_paths >= _kn_path_count(n):
        return False
    return ends is None or budget.max_paths < _path_bound(*ends)


# -- the 3-fan test per subpath ----------------------------------------------


def _subpaths(p: PathVerts):
    for i in range(len(p) - 1):
        for j in range(i + 1, len(p)):
            yield i, j


def _off_path(n: int, p: PathVerts) -> int:
    """Mask of the vertices off p; a detour between two vertices of p may
    use these and its own two ends."""
    mask = (1 << n) - 1
    for x in p:
        mask &= ~(1 << x)
    return mask


@functools.lru_cache(maxsize=200_000)
def _fan_levels(g: Graph, p: PathVerts) -> tuple[int, ...]:
    """For every subpath (i,j) of p, the number of internally-disjoint
    detours between p[i] and p[j] in g minus the rest of p, capped at 3.

    "Detour" excludes the subpath itself: its interior is deleted with the
    rest of p, and for single-edge subpaths the edge itself is barred.
    """
    rest = _off_path(g.n, p)
    return tuple(_local_conn(g._adj, p[i], p[j], 3, rest | 1 << p[i] | 1 << p[j], j > i + 1)
                 for i, j in _subpaths(p))


def _may_reach(adj: Sequence[int], p: PathVerts, k: int) -> bool:
    """Whether some subpath (i,j) of p has a degree cap of at least k, 1 <= k <= 3.

    The cap of (i,j) is min(deg_R(a), deg_R(b)) + [j > i+1 and ab is an
    edge], where R is the set of vertices off p and a, b = p[i], p[j].  It
    bounds the level of (i,j) from above, since the detours are internally
    disjoint: every one other than the edge ab leaves a through its own
    off-path neighbour and enters b through its own.  So when this is
    False, no level of p reaches k, and skipping p changes no answer.
    """
    rest = _off_path(len(adj), p)
    strong, near = 0, []  # vertices of off-path degree >= k; positions of those >= k-1
    for i, x in enumerate(p):
        d = (adj[x] & rest).bit_count()
        if d >= k - 1:
            near.append(i)
            strong += d >= k
    return strong >= 2 or any(j > i + 1 and adj[p[i]] >> p[j] & 1
                              for i, j in itertools.combinations(near, 2))


def _any_may_reach_3(adj: Sequence[int], u: int, v: int) -> bool:
    """Whether _may_reach(adj, p, 3) may hold for some u-v path p."""
    ends = 1 << u | 1 << v
    return sum(m.bit_count() >= (4 if ends >> x & 1 else 5) for x, m in enumerate(adj)) >= 2


def _witness(g: Graph, p: PathVerts, i: int, j: int) -> ChordingWitness:
    """The three detours of subpath (i,j) of p in g, re-validated."""
    a, b = p[i], p[j]
    banned = (a, b) if j == i + 1 else None
    fan = _flow_paths(g._adj, a, b, 3, _off_path(g.n, p) | (1 << a) | (1 << b), banned)
    witness = ChordingWitness(p, (a, b), tuple(tuple(q) for q in fan[:3]))
    if not verify_witness(g, witness):
        raise RuntimeError(f"chording witness {witness} failed re-validation")
    return witness


def _chording_witness(g: Graph, p: PathVerts) -> ChordingWitness | None:
    if not _may_reach(g._adj, p, 3):
        return None
    levels = _fan_levels(g, p)
    if 3 not in levels:
        return None
    i, j = next(itertools.islice(_subpaths(p), levels.index(3), None))
    return _witness(g, p, i, j)


def classify_quasi_3cc(g: Graph, path: Sequence[int]) -> ChordingWitness | None:
    """A verified witness that the path is quasi 3-circuit chording, or None."""
    return _chording_witness(g, validate_path(g, path))


def verify_witness(g: Graph, w: ChordingWitness) -> bool:
    """Re-validate a witness independently of the search that found it."""
    try:
        p = validate_path(g, w.path)
    except GraphError:
        return False
    a, b = w.subpath_ends
    if a not in p or b not in p:
        return False
    i, j = p.index(a), p.index(b)
    if i >= j:
        return False
    if len(w.fan) != 3:
        return False
    subpath = p[i:j + 1]
    others = set(p) - {a, b}
    interiors = []
    for q in w.fan:
        try:
            validate_path(g, q)
        except GraphError:
            return False
        if q[0] != a or q[-1] != b or q == subpath:
            return False
        inner = set(q[1:-1])
        if inner & others:
            return False
        interiors.append(inner)
    for x in range(3):
        for y in range(x + 1, 3):
            if interiors[x] & interiors[y]:
                return False
    return True


def _check_missing_edge(g: Graph, e: Pair) -> None:
    a, b = e
    if a == b or not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphError(f"bad edge ({a},{b})")
    if g.has_edge(a, b):
        raise GraphError(f"edge ({a},{b}) already present")


def is_e_plus_quasi_3cc(g: Graph, path: Sequence[int], e: Pair) -> bool:
    """True iff the path is not quasi 3-circuit chording but becomes so in g+e."""
    p = validate_path(g, path)
    _check_missing_edge(g, e)  # so e is no edge of the path, whose pairs are edges of g
    return _eplus_hits(g, p, e, _plus_edge(g, e)) is not None


def _plus_edge(g: Graph, e: Pair) -> list[int]:
    """The adjacency masks of g + e."""
    adj2 = list(g._adj)
    adj2[e[0]] |= 1 << e[1]
    adj2[e[1]] |= 1 << e[0]
    return adj2


def _eplus_hits(g: Graph, p: PathVerts, e: Pair, adj2: Sequence[int]) -> ChordingWitness | None:
    """The verified witness in g+e for a path of g that is not quasi
    3-circuit chording in g but is in g+e, or None; adj2 is g + e."""
    # a hit is a level 3 in g+e; levels only grow when e is added, so without
    # a cap of 3 in g+e there is no level 3 in g or in g+e, and no hit
    a, b = e
    if not _may_reach(adj2, p, 3):
        return None
    levels = _fan_levels(g, p)
    if 3 in levels:
        return None
    # adding one edge raises any local connectivity by at most 1, so only
    # subpaths currently at level 2 can reach 3; the edge must also survive
    # the deletion of the path remainder
    rest = _off_path(g.n, p)
    for (i, j), level in zip(_subpaths(p), levels):
        if level != 2:
            continue
        x, y = p[i], p[j]
        alive = rest | (1 << x) | (1 << y)
        if not (alive >> a & 1) or not (alive >> b & 1):
            continue
        if _local_conn(adj2, x, y, 3, alive, j > i + 1) >= 3:
            return _witness(Graph._of(adj2), p, i, j)
    return None


# -- queries over all u-v paths -----------------------------------------------

# (query key, budget) -> the first (path, witness or arcs) in order, or None;
# past _VERDICTS_MAX entries the oldest is dropped
_verdicts: dict[tuple, tuple | None] = {}
_VERDICTS_MAX = 100_000


def clear_caches() -> None:
    _verdicts.clear()
    _fan_levels.cache_clear()
    _simple_paths.cache_clear()


def _sweep(key: tuple, g: Graph, u: int, v: int, budget: SearchBudget,
           hit: Callable[[PathVerts], object], what: str, possible: bool,
           screen: Sequence[int] | None = None) -> tuple | None:
    """The first (p, hit(p)) with hit(p) not None over the simple u-v paths
    in (length, lex) order, or None when there is none; cached under key and
    budget.  hit(p) must be None whenever _may_reach(screen, p, 3) is False,
    when screen (rows of a supergraph of g) is given.

    A sweep the budget cannot truncate, i.e. one with max_len unset or at
    least n and max_paths at least P(n) or _path_bound, Bregman's bound on
    the permanent of A + I plus the entry (v, u), which counts each u-v path
    closed into a cycle by v -> u, runs on _paths_in_order, which builds each
    prefix once, drops the prefixes on which no path can pass the screen and
    stops at the first hit; when possible is False, the degrees rule out
    every path and it enumerates none.  A sweep the budget can truncate
    lists its paths through _simple_paths, even when possible is False and
    none is screened, and when it is truncated and found nothing it raises
    BudgetExceeded."""
    key += (budget,)
    if key in _verdicts:
        return _verdicts[key]
    found = None
    if _can_truncate(budget, g.n, (g._adj, u, v)):
        paths, complete = _simple_paths(g, u, v, budget.max_paths, min(budget.max_len or g.n, g.n))
    else:
        paths, complete = _paths_in_order(g._adj, u, v, screen), True
    for p in paths if possible else ():
        detail = hit(p)
        if detail is not None:
            found = p, detail
            break
    else:
        if not complete:
            raise BudgetExceeded(f"path sweep for {what} truncated before a verdict")
    if len(_verdicts) >= _VERDICTS_MAX:
        del _verdicts[next(iter(_verdicts))]
    _verdicts[key] = found
    return found


def find_quasi_3cc_path(g: Graph, u: int, v: int,
                        budget: SearchBudget = DEFAULT_BUDGET):
    """First (path, witness) pair in enumeration order, or None."""
    _check_pair(g, u, v)
    return _sweep(("q3cc", g, u, v), g, u, v, budget,
                  functools.partial(_chording_witness, g), f"quasi-3cc {u}-{v}",
                  _any_may_reach_3(g._adj, u, v), g._adj)


def find_e_plus_quasi_3cc_path(g: Graph, u: int, v: int, e: Pair,
                               budget: SearchBudget = DEFAULT_BUDGET):
    """First (path, witness-in-g+e) pair in enumeration order, or None."""
    _check_pair(g, u, v)
    _check_missing_edge(g, e)
    a, b = e
    adj2 = _plus_edge(g, e)
    return _sweep(("eplus", g, u, v, (min(a, b), max(a, b))), g, u, v, budget,
                  lambda p: _eplus_hits(g, p, e, adj2), f"e-plus quasi-3cc {u}-{v}",
                  _any_may_reach_3(adj2, u, v), adj2)


def find_quasi_chord(g: Graph, u: int, v: int,
                     budget: SearchBudget = DEFAULT_BUDGET):
    """First (path, cycle-as-two-arcs) making a quasi chord, or None.

    The cycle passes through u and v non-consecutively; u and v may be
    adjacent in g.
    """
    _check_pair(g, u, v)

    def arcs(p):
        # a suitable cycle = two internally-disjoint u-v paths of length >= 2;
        # each leaves u and enters v through its own off-path neighbour
        rest = _off_path(g.n, p)
        if min((g._adj[u] & rest).bit_count(), (g._adj[v] & rest).bit_count()) < 2:
            return None
        found = _flow_paths(g._adj, u, v, 2, rest | (1 << u) | (1 << v), (u, v))
        return (tuple(found[0]), tuple(found[1])) if len(found) >= 2 else None
    return _sweep(("qchord", g, u, v), g, u, v, budget, arcs, f"quasi chord {u}-{v}",
                  g.degree(u) >= 3 and g.degree(v) >= 3)


def exists_quasi_3cc_path(g: Graph, u: int, v: int,
                          budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """Is some simple u-v path quasi 3-circuit chording in g?"""
    return find_quasi_3cc_path(g, u, v, budget) is not None


def exists_e_plus_quasi_3cc_path(g: Graph, u: int, v: int, e: Pair,
                                 budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """Is some simple u-v path of g an e-plus quasi 3-circuit chording path?"""
    return find_e_plus_quasi_3cc_path(g, u, v, e, budget) is not None


def exists_quasi_chord(g: Graph, u: int, v: int,
                       budget: SearchBudget = DEFAULT_BUDGET) -> bool:
    """Is some simple u-v path a quasi chord of some cycle of g?"""
    return find_quasi_chord(g, u, v, budget) is not None
