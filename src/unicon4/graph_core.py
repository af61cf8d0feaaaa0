"""Simple undirected graphs on dense 0-based vertex ids, with graph6 /
edge-list / DOT formats, exact canonical certificates and the fixture
graphs used throughout the toolkit.

Graphs are immutable values: every mutator returns a fresh Graph and never
aliases the input.  Adjacency is kept as per-vertex bitmasks, which keeps
the connectivity and search code elsewhere in the package fast without any
third-party dependency.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence

MAX_ORDER = 16  # canonical certificates and the file formats are only supported up to here

Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph construction or a violated operation precondition."""


class FormatError(GraphError):
    """Unparseable or out-of-contract graph6 / edge-list input."""


def _norm_edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple undirected graph with vertices 0..n-1."""

    __slots__ = ("n", "_adj", "_hash")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if type(n) is not int:  # as _id: True would build Graph(1), 2.0 fail bare
            raise GraphError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise GraphError(f"vertex count must be non-negative, got {n}")
        adj = [0] * n
        _or_edges(adj, edges)
        self.n = n
        self._adj = tuple(adj)
        self._hash = hash((n, self._adj))

    @classmethod
    def _of(cls, adj: Sequence[int]) -> "Graph":
        # rows already symmetric, loop-free and in range: built from a valid Graph
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = tuple(adj)
        g._hash = hash((g.n, g._adj))
        return g

    # -- queries ---------------------------------------------------------

    def _vertex(self, v: int) -> int:
        if not 0 <= _id(v) < self.n:
            raise GraphError(f"vertex {v} outside 0..{self.n - 1}")
        return v

    def adj_mask(self, v: int) -> int:
        return self._adj[self._vertex(v)]

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self._adj[self._vertex(u)] >> self._vertex(v) & 1)

    def degree(self, v: int) -> int:
        return self._adj[self._vertex(v)].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _mask_bits(self._adj[self._vertex(v)])

    def edges(self) -> list[Edge]:
        return [(u, v) for u in range(self.n) for v in _mask_bits(self._adj[u] >> (u + 1) << (u + 1))]

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self._adj) // 2

    def is_complete(self) -> bool:
        full = (1 << self.n) - 1
        return all(self._adj[v] == full ^ (1 << v) for v in range(self.n))

    def min_degree(self) -> int:
        return min((m.bit_count() for m in self._adj), default=0)

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def _id(v: object) -> int:
    """v, once it is exactly an int: a bool or a float such as 1.0 would
    name another vertex, and any other type fail with a bare error."""
    if type(v) is not int:
        raise GraphError(f"vertex ids must be integers, got {v!r}")
    return v


def _pair(edge: Edge) -> Edge:
    """edge as a pair of checked ids, the lesser first."""
    try:
        u, v = edge
    except (TypeError, ValueError):
        raise GraphError(f"an edge must be a pair of vertex ids, got {edge!r}") from None
    return _norm_edge(_id(u), _id(v))


def _or_edges(adj: list[int], edges: Iterable[Edge]) -> None:
    n = len(adj)
    for u, v in map(_pair, edges):
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u


def _mask_bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


# -- mutators (pure; inputs never change) ----------------------------------


def remove_edges(g: Graph, drop: Iterable[Edge]) -> Graph:
    adj = list(g._adj)
    for u, v in set(map(_pair, drop)):
        if not (0 <= u < g.n and 0 <= v < g.n) or not adj[u] >> v & 1:
            raise GraphError(f"edge ({u},{v}) not in graph")
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return Graph._of(adj)


def add_edges(g: Graph, extra: Iterable[Edge]) -> Graph:
    adj = list(g._adj)
    _or_edges(adj, extra)
    return Graph._of(adj)


def add_vertex_with_neighbors(g: Graph, nbrs: Iterable[int]) -> Graph:
    nbrs = sorted({_id(v) for v in nbrs})
    if nbrs and not (0 <= nbrs[0] and nbrs[-1] < g.n):
        raise GraphError(f"neighbor set {nbrs} mentions unknown vertices")
    x = 1 << g.n
    mask = 0
    for u in nbrs:
        mask |= 1 << u
    return Graph._of([row | x if mask >> u & 1 else row for u, row in enumerate(g._adj)] + [mask])


def delete_vertex(g: Graph, v: int) -> tuple[Graph, dict[int, int]]:
    """Remove v, relabel the rest densely; returns (graph, old id -> new id)."""
    if not 0 <= _id(v) < g.n:
        raise GraphError(f"vertex {v} not in graph")
    keep = [u for u in range(g.n) if u != v]
    return _form_from(g, keep), {old: new for new, old in enumerate(keep)}


def induced(g: Graph, verts: Iterable[int]) -> Graph:
    """Induced subgraph on verts, relabeled densely in ascending vertex order."""
    keep = sorted({_id(v) for v in verts})
    if not keep or keep[0] < 0 or keep[-1] >= g.n:
        raise GraphError(f"vertex set {keep} invalid for graph on {g.n} vertices")
    return _form_from(g, keep)


# -- fixtures ---------------------------------------------------------------


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def square_of_cycle(n: int) -> Graph:
    """Cycle on n vertices plus all chords between vertices at circular distance 2."""
    if n < 5:
        raise GraphError("squared cycle is defined here for n >= 5")
    return Graph(n, [(i, (i + d) % n) for i in range(n) for d in (1, 2)])


def octahedron() -> Graph:
    return square_of_cycle(6)


def octahedron_plus() -> Graph:
    """Octahedron with one antipodal pair joined (6 vertices, 13 edges)."""
    return add_edges(octahedron(), [(0, 3)])


def k6_minus_edge() -> Graph:
    return remove_edges(complete_graph(6), [(0, 1)])


# -- graph6 (standard 6-bit encoding, bit exact) ---------------------------


def format_graph6(g: Graph) -> str:
    if g.n > MAX_ORDER:
        raise FormatError(f"graph6 support here stops at n={MAX_ORDER}, got {g.n}")
    bits = []
    for j in range(1, g.n):
        col = g.adj_mask(j)
        bits.extend((col >> i) & 1 for i in range(j))
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        chunk = bits[k:k + 6]
        chunk += [0] * (6 - len(chunk))
        val = 0
        for b in chunk:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise FormatError("empty graph6 string")
    if any(not (63 <= ord(c) <= 126) for c in s):
        raise FormatError("graph6 characters must be in the ASCII range 63..126")
    n = ord(s[0]) - 63
    if n == 63:
        raise FormatError("multi-byte graph6 orders exceed the supported range")
    if n > MAX_ORDER:
        raise FormatError(f"graph6 order {n} exceeds the supported maximum {MAX_ORDER}")
    nbits = n * (n - 1) // 2
    body = s[1:]
    if len(body) != (nbits + 5) // 6:
        raise FormatError(f"graph6 body has {len(body)} characters, expected {(nbits + 5) // 6}")
    bits = []
    for c in body:
        val = ord(c) - 63
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise FormatError("nonzero padding bits in graph6 body")
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph(n, edges)


# -- edge-list text ("n <count>" header, one "u v" line per edge) -----------


def format_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise FormatError(f"expected header 'n <count>', got {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise FormatError(f"bad vertex count {head[1]!r}") from None
    if not 0 <= n <= MAX_ORDER:
        raise FormatError(f"vertex count {n} outside supported range 0..{MAX_ORDER}")
    seen = set()
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"expected 'u v', got {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise FormatError(f"non-integer vertex id in {ln!r}") from None
        if u == v:
            raise FormatError(f"self-loop {ln!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"vertex id out of range in {ln!r}")
        e = _norm_edge(u, v)
        if e in seen:
            raise FormatError(f"duplicate edge {ln!r}")
        seen.add(e)
        edges.append(e)
    return Graph(n, edges)


def to_dot(g: Graph, name: str = "G") -> str:
    lines = [f"graph {name} {{"]
    lines.extend(f"  {v};" for v in range(g.n))
    lines.extend(f"  {u} -- {v};" for u, v in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- canonical certificates -------------------------------------------------
#
# Exact canonical form by equitable refinement (McKay, "Practical graph
# isomorphism", 1981) plus a backtracking search over the remaining cell
# choices.  A refinement round splits every cell at once by its vertices'
# counts into the cells and orders the pieces by count tuple; it counts
# only into the pieces the previous round split off, as bit-sliced
# masks (a one-vertex piece's counts are its row), which gives the
# partitions, labelings and automorphisms of counting into every cell.
# The canonical form is the leaf form whose upper-triangle bits, read row
# by row, are least; the search keeps the best leaf's rows, compares each
# new leaf with them a row at a time, and hands them out as the form, so
# no caller rebuilds it.  Discovered automorphisms prune sibling branches,
# which keeps vertex-transitive graphs (complete graphs, squared cycles)
# cheap.  Exactness was the requirement; the n cap keeps the search
# trivially safe.


def _refine(adj: Sequence[int], cells: list[int], fresh: list[int]) -> list[int]:
    # cells: list of bitmasks, ordered; refined until equitable.  fresh:
    # the pieces the last split made, in cell order, less the last piece
    # of each split; a count into any other cell is constant on each cell
    # or fixed by the counts into its sibling pieces, so it cannot split
    # a cell or reorder its pieces
    n = len(adj)
    while fresh and len(cells) < n:  # a discrete partition is equitable
        cuts: list[int] = []  # splitter by splitter, each high count bit first
        for splitter in fresh:
            if splitter & (splitter - 1) == 0:  # one vertex: its row is its one count bit
                cuts.append(adj[splitter.bit_length() - 1])
                continue
            # slices[b]: the vertices whose count into splitter has bit b set
            slices: list[int] = []
            while splitter:
                low = splitter & -splitter
                splitter ^= low
                carry = adj[low.bit_length() - 1]
                for b, s in enumerate(slices):
                    slices[b] = s ^ carry
                    carry &= s
                    if not carry:
                        break
                else:
                    slices.append(carry)
            cuts.extend(reversed(slices))
        new_cells: list[int] = []
        fresh = []
        for cell in cells:
            # cut by cut, zeros before ones: pieces in ascending count tuple order
            pieces = None
            if cell & (cell - 1):  # not a singleton
                for s in cuts:
                    one = cell & s
                    if one == 0 or one == cell:
                        continue
                    if pieces is None:
                        pieces = [cell ^ one, one]
                        continue
                    split = []
                    for p in pieces:
                        one = p & s
                        if one and one != p:
                            split.append(p ^ one)
                            split.append(one)
                        else:
                            split.append(p)
                    pieces = split
            if pieces is None:
                new_cells.append(cell)
            else:
                new_cells += pieces
                fresh += pieces[:-1]
        cells = new_cells
    return cells


class _CanonSearch:
    def __init__(self, adj: Sequence[int], n: int):
        self.adj = adj
        self.n = n
        self.nbrs = [_mask_bits(row) for row in adj]  # each vertex's neighbours, for the leaves
        # the best leaf: its labeling, path, and the rows of its form, row i
        # holding the position bits of order[i]'s neighbours
        self.best_order: tuple[int, ...] | None = None
        self.best_path: tuple[int, ...] = ()
        self.best_rows: list[int] = []
        self.autos: list[tuple[int, ...]] = []  # p as a tuple mapping v to p[v]

    def run(self) -> tuple[int, ...]:
        full = (1 << self.n) - 1
        cells = _refine(self.adj, [full], [full]) if self.n else []
        self._descend(cells, [])
        if self.best_order is None:
            raise RuntimeError("canonical search reached no leaf")
        return self.best_order

    def _leaf(self, order: tuple[int, ...], fixed: list[int]) -> int:
        # the leaf's form is compared with the best one a row at a time, as
        # their upper-triangle bits read row by row: row i's bits below i
        # repeat bit i of the rows above it, so in the first row that
        # differs, the lowest differing bit is the first differing bit of
        # the upper triangles, and the form with a 0 there is the smaller
        depth = len(fixed)
        best = self.best_rows if self.best_order is not None else None
        place = [0] * self.n  # vertex -> the bit of its position
        for i, v in enumerate(order):
            place[v] = 1 << i
        nbrs = self.nbrs
        rows = []
        for i, v in enumerate(order):
            row = 0
            for u in nbrs[v]:
                row |= place[u]
            if best is not None and row != best[i]:
                differ = row ^ best[i]
                if row & differ & -differ:  # greater than the best leaf
                    return depth
                best = None  # smaller: build the rest of the new best
            rows.append(row)
        if best is None:
            self.best_order, self.best_path, self.best_rows = order, tuple(fixed), rows
            return depth
        # a tie: the automorphism best leaf -> this leaf maps the best
        # path onto this path, so it fixes their common prefix and maps
        # the explored child of the node where they part onto the child
        # holding this leaf; the rest of that child is an image too
        auto = [0] * self.n
        for b, v in zip(self.best_order, order):
            auto[b] = v
        self.autos.append(tuple(auto))
        i = 0  # the paths part before either ends, as no leaf has children
        while self.best_path[i] == fixed[i]:
            i += 1
        return i

    def _descend(self, cells: list[int], fixed: list[int]) -> int:
        # returns the depth to go back to: a node deeper than it returns at
        # once.  fixed is the path, one list that each child appends its
        # vertex to and pops it from
        if len(cells) == self.n:  # discrete: a leaf
            return self._leaf(tuple([c.bit_length() - 1 for c in cells]), fixed)
        depth = len(fixed)
        for split_at, cell in enumerate(cells):
            if cell & (cell - 1):
                break
        head, tail = cells[:split_at], cells[split_at + 1:]
        adj, autos = self.adj, self.autos
        # orbit: the tried children, closed under the recorded automorphisms
        # that fix the prefix pointwise; a child inside it would open an
        # image of an explored subtree.  Until such an automorphism is
        # recorded, it is the tried children, and no child is in it
        orbit: set = set()
        gens: list[tuple[int, ...]] = []
        known = 0  # the recorded automorphisms gens has seen
        for v in _mask_bits(cell):
            if len(autos) > known:
                fresh = [a for a in autos[known:] if [a[f] for f in fixed] == fixed]
                known = len(autos)
                gens += fresh
                _extend(orbit, [a[u] for a in fresh for u in orbit], gens)
            if gens:
                if v in orbit:
                    continue
                _extend(orbit, [v], gens)
            else:
                orbit.add(v)
            bit = 1 << v
            fixed.append(v)
            back = self._descend(_refine(adj, head + [bit, cell ^ bit] + tail, [bit]), fixed)
            fixed.pop()
            if back < depth:
                return back
        return depth


def _extend(orbit: set, todo: list[int], gens: list[tuple[int, ...]]) -> None:
    """Add the vertices of todo to orbit, an orbit set closed under gens."""
    while todo:
        u = todo.pop()
        if u not in orbit:
            orbit.add(u)
            todo += [a[u] for a in gens]


def _canonical_search(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, ...]], list[int]]:
    """g's canonical labeling, the automorphisms its search recorded, which
    generate g's automorphism group (automorphism_group), and the rows of
    g's canonical form, which the search compared its leaves by."""
    if g.n > MAX_ORDER:
        raise GraphError(f"canonical labeling supported up to n={MAX_ORDER}, got {g.n}")
    search = _CanonSearch(g._adj, g.n)
    return search.run(), search.autos, search.best_rows


def canonical_labeling(g: Graph) -> tuple[int, ...]:
    """Permutation as a tuple: position i holds the old id placed at i."""
    return _canonical_search(g)[0]


def automorphism_group(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Every automorphism of g as a tuple p mapping v to p[v], sorted.

    The canonical search records an automorphism for each leaf it reaches
    that ties the best leaf, goes back to the node where that leaf's path
    parts from the best leaf's path, and skips a child that lies in the
    orbit of the tried children under the recorded automorphisms that fix
    the node's prefix.  The records still generate the whole group.  Let
    b1..bm be the best leaf's path and G_i the automorphisms that fix
    b1..bi.  The best leaf is the first leaf of least code in search
    order, which no pruning skips, so the node b1..bi tries b_{i+1} before
    any other child w in b_{i+1}'s G_i-orbit.  When it tries such a w, the
    first image of the best leaf in w's subtree is reached, since a pruned
    one would have an earlier tie there as its preimage, and that tie
    records an automorphism in G_i that sends b_{i+1} to w.  A skipped w
    lies in the recorded orbit of a tried one.  So the records in G_i are
    transitive on the G_i-orbit of b_{i+1}, G_i is generated by them and
    G_{i+1}, and G_m is trivial.
    """
    return _group(_canonical_search(g)[1], g.n)


def _group(gens: Sequence[tuple[int, ...]], n: int) -> tuple[tuple[int, ...], ...]:
    """The group that gens, permutations of 0..n-1 as tuples, generate, sorted."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(s[x] for x in p)
            if q not in group:
                group.add(q)
                frontier.append(q)
    return tuple(sorted(group))


def _form_from(g: Graph, order: Sequence[int]) -> Graph:
    """The graph whose vertex i is g's vertex order[i], for distinct ids.
    A vertex left out of order drops out with its edges, so this one call
    relabels, deletes vertices or takes an induced subgraph, from the rows."""
    place = [0] * g.n  # old id -> its bit at the new position, 0 when dropped
    for i, old in enumerate(order):
        place[old] = 1 << i
    rows = []
    for old in order:
        row, mask = 0, g._adj[old]
        while mask:
            low = mask & -mask
            row |= place[low.bit_length() - 1]
            mask ^= low
        rows.append(row)
    return Graph._of(rows)


def canonical_form(g: Graph) -> Graph:
    return Graph._of(_canonical_search(g)[2])


def canonical_cert(g: Graph) -> bytes:
    """Isomorphism-class certificate: graph6 of the canonical form."""
    return _cert_of(_canonical_search(g)[2])


def _cert_of(rows: Sequence[int]) -> bytes:
    """The certificate of the canonical form with these rows."""
    return format_graph6(Graph._of(rows)).encode("ascii")


def are_isomorphic(g: Graph, h: Graph) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    return canonical_cert(g) == canonical_cert(h)


def find_isomorphism(g: Graph, h: Graph) -> dict[int, int] | None:
    """An explicit vertex bijection g -> h, or None."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    return _iso_from(g, h, canonical_labeling(g), canonical_labeling(h))


def _iso_from(g: Graph, h: Graph, g_order: Sequence[int],
              h_order: Sequence[int]) -> dict[int, int] | None:
    """find_isomorphism(g, h) for g, h of equal order and size, from their labelings."""
    # the canonical forms agree iff the map between equal canonical
    # positions is an isomorphism, so test the map instead of building them
    mapping = dict(sorted(zip(g_order, h_order)))
    if not all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges()):
        return None
    return mapping


def relabel(g: Graph, mapping: dict[int, int]) -> Graph:
    if sorted(mapping) != list(range(g.n)) or sorted(mapping.values()) != list(range(g.n)):
        raise GraphError("relabeling must be a permutation of the vertex ids")
    return _form_from(g, sorted(mapping, key=mapping.get))  # old ids by new id
