import hashlib
import itertools
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from unicon4 import (FormatError, Graph, GraphError, add_edges, add_vertex_with_neighbors,
                     are_isomorphic, canonical_cert, canonical_form, complete_graph,
                     delete_vertex, find_isomorphism, format_edge_list, format_graph6,
                     induced, k6_minus_edge, octahedron, octahedron_plus, parse_edge_list,
                     oracle_graphs, parse_graph6, remove_edges, square_of_cycle, to_dot)
from unicon4 import construct, graph_core, transform
from unicon4.graph_core import relabel

import reference


@st.composite
def graphs(draw, min_n=1, max_n=9):
    n = draw(st.integers(min_n, max_n))
    slots = list(itertools.combinations(range(n), 2))
    picks = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    return Graph(n, [e for e, on in zip(slots, picks) if on])


class TestGraphType:
    def test_basic_invariants(self):
        g = Graph(4, [(0, 1), (2, 1), (3, 0)])
        assert g.n == 4 and g.edge_count == 3
        assert g.has_edge(1, 0) and g.has_edge(0, 1)
        assert g.neighbors(1) == [0, 2]
        assert g.degree(3) == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 3)])

    @pytest.mark.parametrize("bad", [-1, 8])
    def test_accessors_reject_ids_out_of_range(self, bad):
        # a negative id once read vertex n + id: has_edge(-1, 6) was True on C8^2
        g = square_of_cycle(8)
        calls = [lambda: g.has_edge(bad, 6), lambda: g.has_edge(0, bad),
                 lambda: g.degree(bad), lambda: g.neighbors(bad), lambda: g.adj_mask(bad)]
        for call in calls:
            with pytest.raises(GraphError, match=f"vertex {bad} outside 0..7"):
                call()
        assert g.has_edge(7, 6) and g.degree(7) == 4 and g.neighbors(0) == [1, 2, 6, 7]

    def test_set_semantics(self):
        assert Graph(3, [(0, 1), (1, 0), (0, 1)]).edge_count == 1

    def test_value_equality(self):
        assert Graph(3, [(0, 1)]) == Graph(3, [(1, 0)])
        assert Graph(3, [(0, 1)]) != Graph(4, [(0, 1)])


class TestMutators:
    def test_remove_edges(self):
        g = remove_edges(complete_graph(5), [(0, 1)])
        assert g.edge_count == 9 and not g.has_edge(0, 1)

    def test_remove_unknown_edge(self):
        with pytest.raises(GraphError):
            remove_edges(octahedron(), [(0, 3)])

    def test_delete_vertex_relabels_densely(self):
        g, idmap = delete_vertex(complete_graph(5), 4)
        assert g == complete_graph(4)
        assert idmap == {0: 0, 1: 1, 2: 2, 3: 3}
        g, idmap = delete_vertex(complete_graph(5), 0)
        assert g == complete_graph(4)
        assert idmap == {1: 0, 2: 1, 3: 2, 4: 3}

    def test_induced_octahedron_triangle(self):
        # 0,1,2 pairwise within circular distance 2 on the 6-cycle
        assert induced(octahedron(), {0, 1, 2}) == complete_graph(3)

    def test_induced_unknown_vertex(self):
        with pytest.raises(GraphError):
            induced(octahedron(), {0, 9})

    def test_add_vertex(self):
        g = add_vertex_with_neighbors(complete_graph(3), [0, 2])
        assert g.n == 4 and g.degree(3) == 2 and g.has_edge(3, 0) and g.has_edge(3, 2)

    def test_mutators_never_alias(self):
        g = octahedron()
        before = g.edges()
        remove_edges(g, [(0, 1)])
        add_edges(g, [(0, 3)])
        delete_vertex(g, 0)
        induced(g, {0, 1, 2})
        add_vertex_with_neighbors(g, [0])
        assert g.edges() == before


class TestMaskBuilt:
    """The mutators, canonical_form, induced, relabel and the edge reduction
    build rows from bitmasks; each must equal the graph built from its edge
    list, and reject bad input with the edge-list build's message."""

    @staticmethod
    def _same(got, want):
        assert got == want and hash(got) == hash(want) and got.edges() == want.edges()

    def test_equal_to_edge_list_builds(self):
        rng = random.Random(44)
        deleted = set()  # how many endpoints the reductions deleted
        for _ in range(200):
            g = reference.random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
            edges = g.edges()
            nbrs = [u for u in range(g.n) if rng.random() < 0.5]
            self._same(add_vertex_with_neighbors(g, nbrs),
                       Graph(g.n + 1, edges + [(u, g.n) for u in nbrs]))
            pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u != v]
            extra = rng.sample(pairs, min(len(pairs), rng.randint(0, 5)))
            self._same(add_edges(g, extra), Graph(g.n, edges + extra))
            drop = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges if rng.random() < 0.3]
            dropset = {(min(e), max(e)) for e in drop}
            self._same(remove_edges(g, drop), Graph(g.n, [e for e in edges if e not in dropset]))
            v = rng.randrange(g.n)
            remap = {old: old - (old > v) for old in range(g.n) if old != v}
            got, got_remap = delete_vertex(g, v)
            self._same(got, Graph(g.n - 1, [(remap[a], remap[b]) for a, b in edges if v not in (a, b)]))
            assert got_remap == remap
            pos = {old: i for i, old in enumerate(graph_core.canonical_labeling(g))}
            self._same(canonical_form(g), Graph(g.n, [(pos[a], pos[b]) for a, b in edges]))
            keep = sorted(rng.sample(range(g.n), rng.randint(1, g.n)))
            at = {old: new for new, old in enumerate(keep)}
            self._same(induced(g, keep), Graph(len(keep), [(at[a], at[b]) for a, b in edges
                                                           if a in at and b in at]))
            perm = list(range(g.n))
            rng.shuffle(perm)
            mapping = dict(enumerate(perm))
            self._same(relabel(g, mapping), Graph(g.n, [(perm[a], perm[b]) for a, b in edges]))
            if edges:
                x, y = rng.choice(edges)
                got, got_remap = transform._reduce(g, x, y)
                want, want_remap = reference.reduce_by_sets(g, x, y)
                self._same(got, want)
                assert got_remap == want_remap
                deleted.add(g.n - got.n)
        assert deleted == {0, 1, 2}

    @pytest.mark.parametrize("build, message", [
        (lambda g: add_edges(g, [(0, 1), (2, 2)]), "self-loop at vertex 2"),
        (lambda g: add_edges(g, [(9, 0)]), "edge (0,9) has an endpoint outside 0..5"),
        (lambda g: add_edges(g, [(-1, 3)]), "edge (-1,3) has an endpoint outside 0..5"),
        (lambda g: remove_edges(g, [(3, 0)]), "edge (0,3) not in graph"),
        (lambda g: remove_edges(g, [(0, 6)]), "edge (0,6) not in graph"),
        (lambda g: remove_edges(g, [(1, 1)]), "edge (1,1) not in graph"),
        (lambda g: add_vertex_with_neighbors(g, [7, 0]), "neighbor set [0, 7] mentions unknown vertices"),
        (lambda g: add_vertex_with_neighbors(g, [-1]), "neighbor set [-1] mentions unknown vertices"),
        (lambda g: delete_vertex(g, 6), "vertex 6 not in graph"),
        # each was once read as another vertex: True as 1, 1.0 as 1
        (lambda g: Graph(3, [(True, 2)]), "vertex ids must be integers, got True"),
        (lambda g: g.degree(True), "vertex ids must be integers, got True"),
        (lambda g: g.has_edge(0, 1.0), "vertex ids must be integers, got 1.0"),
        (lambda g: delete_vertex(g, 1.0), "vertex ids must be integers, got 1.0"),
        (lambda g: add_edges(g, [(0, False)]), "vertex ids must be integers, got False"),
        (lambda g: remove_edges(g, [(0, 1.0)]), "vertex ids must be integers, got 1.0"),
        (lambda g: add_vertex_with_neighbors(g, [1, True]), "vertex ids must be integers, got True"),
        (lambda g: induced(g, [0, 1.0, 2]), "vertex ids must be integers, got 1.0"),
        # and these once failed with a bare TypeError or ValueError
        (lambda g: Graph(3, [(0, 1.0)]), "vertex ids must be integers, got 1.0"),
        (lambda g: Graph(3, [(0, "1")]), "vertex ids must be integers, got '1'"),
        (lambda g: Graph(3, [(0, 1, 2)]), "an edge must be a pair of vertex ids, got (0, 1, 2)"),
        (lambda g: Graph(3, [5]), "an edge must be a pair of vertex ids, got 5"),
        (lambda g: remove_edges(g, [(0,)]), "an edge must be a pair of vertex ids, got (0,)"),
    ])
    def test_bad_input_messages(self, build, message):
        g = octahedron()
        with pytest.raises(GraphError, match=f"^{re.escape(message)}$"):
            build(g)
        assert g == octahedron()

    # True once built a graph equal to Graph(1), and 2.0 and "3" failed with
    # a bare TypeError
    @pytest.mark.parametrize("n", [True, False, 2.0, "3", None])
    def test_vertex_count_must_be_an_int(self, n):
        with pytest.raises(GraphError, match=f"^vertex count must be an integer, got {re.escape(repr(n))}$"):
            Graph(n)


class TestFixtures:
    def test_square_of_cycle_5_is_k5(self):
        assert square_of_cycle(5) == complete_graph(5)

    def test_square_of_cycle_6_is_octahedron(self):
        g = square_of_cycle(6)
        non_edges = [(u, v) for u in range(6) for v in range(u + 1, 6) if not g.has_edge(u, v)]
        assert non_edges == [(0, 3), (1, 4), (2, 5)]

    def test_square_of_cycle_7(self):
        g = square_of_cycle(7)
        assert g.edge_count == 14 and all(g.degree(v) == 4 for v in range(7))

    def test_square_of_cycle_too_small(self):
        with pytest.raises(GraphError):
            square_of_cycle(4)

    def test_named_six_vertex_graphs(self):
        assert octahedron_plus().edge_count == 13
        assert k6_minus_edge().edge_count == 14


class TestGraph6:
    def test_k5_reference_string(self):
        assert format_graph6(complete_graph(5)) == "D~{"
        assert parse_graph6("D~{") == complete_graph(5)

    def test_single_vertex(self):
        g = parse_graph6(format_graph6(Graph(1)))
        assert g.n == 1 and g.edge_count == 0

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(200):
            g = reference.random_graph(rng, rng.randint(1, 12), rng.random())
            assert parse_graph6(format_graph6(g)) == g

    def test_optional_header_prefix(self):
        assert parse_graph6(">>graph6<<D~{") == complete_graph(5)

    def test_malformed_character(self):
        with pytest.raises(FormatError):
            parse_graph6("D~\x1f")

    def test_wrong_body_length(self):
        with pytest.raises(FormatError):
            parse_graph6("D~")

    def test_nonzero_padding(self):
        good = format_graph6(Graph(5, [(0, 1)]))
        bad = good[:-1] + chr(ord(good[-1]) + 1)  # set the lowest padding bit
        with pytest.raises(FormatError):
            parse_graph6(bad)

    def test_order_too_large(self):
        with pytest.raises(FormatError):
            parse_graph6(chr(63 + 17))
        with pytest.raises(FormatError):
            format_graph6(Graph(17))


class TestEdgeList:
    def test_k5(self):
        text = "n 5\n" + "\n".join(f"{u} {v}" for u, v in itertools.combinations(range(5), 2))
        assert parse_edge_list(text) == complete_graph(5)

    def test_c6_squared_fixture(self):
        pairs = square_of_cycle(6).edges()
        text = "n 6\n" + "\n".join(f"{u} {v}" for u, v in pairs)
        assert parse_edge_list(text) == octahedron()

    def test_self_loop_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("n 5\n3 3")

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError):
            parse_edge_list("n 5\n0 1\n1 0")

    def test_id_out_of_range(self):
        with pytest.raises(FormatError):
            parse_edge_list("n 3\n0 3")

    def test_bad_header(self):
        with pytest.raises(FormatError):
            parse_edge_list("5\n0 1")

    def test_roundtrip(self):
        rng = random.Random(6)
        for _ in range(50):
            g = reference.random_graph(rng, rng.randint(1, 10), 0.4)
            assert parse_edge_list(format_edge_list(g)) == g


class TestDot:
    def test_each_edge_once(self):
        out = to_dot(octahedron())
        assert out.count("--") == 12
        assert "0 -- 1;" in out and "1 -- 0;" not in out


class TestCanonical:
    def test_c5sq_equals_k5(self):
        assert canonical_cert(square_of_cycle(5)) == canonical_cert(complete_graph(5))

    def test_octahedron_vs_oct_plus(self):
        assert canonical_cert(octahedron()) != canonical_cert(octahedron_plus())

    def test_relabelings_of_c6sq(self):
        rng = random.Random(1)
        want = canonical_cert(octahedron())
        for _ in range(20):
            assert canonical_cert(reference.random_permuted(rng, octahedron())) == want

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=10), st.randoms(use_true_random=False))
    def test_cert_invariant_under_permutation(self, g, rnd):
        assert canonical_cert(reference.random_permuted(rnd, g)) == canonical_cert(g)

    def test_agreement_with_permutation_search(self):
        rng = random.Random(13)
        pool = [complete_graph(5), octahedron(), octahedron_plus(), k6_minus_edge(),
                square_of_cycle(7)]
        pool += [reference.random_graph(rng, rng.randint(2, 7), rng.choice([0.3, 0.5, 0.7]))
                 for _ in range(40)]
        for a, b in itertools.combinations(pool, 2):
            assert are_isomorphic(a, b) == reference.permutations_isomorphic(a, b)

    def test_all_unlabeled_graphs_n5(self):
        # 34 isomorphism classes on 5 vertices
        assert len({canonical_cert(g) for g in reference.all_labeled_graphs(5)}) == 34

    def test_canonical_form_is_fixed_point(self):
        rng = random.Random(3)
        for _ in range(30):
            g = reference.random_graph(rng, rng.randint(1, 8), 0.5)
            c = canonical_form(g)
            assert canonical_form(c) == c and canonical_cert(c) == canonical_cert(g)

    def test_find_isomorphism_is_explicit(self):
        rng = random.Random(8)
        for _ in range(30):
            g = reference.random_graph(rng, rng.randint(2, 8), 0.5)
            h = reference.random_permuted(rng, g)
            iso = find_isomorphism(g, h)
            assert iso is not None
            assert relabel(g, iso) == h

    def test_find_isomorphism_labels_each_graph_once(self, monkeypatch):
        calls = []
        real = graph_core.canonical_labeling
        monkeypatch.setattr(graph_core, "canonical_labeling", lambda g: calls.append(g) or real(g))
        g = square_of_cycle(7)
        assert find_isomorphism(g, reference.random_permuted(random.Random(5), g)) is not None
        assert len(calls) == 2
        # the complement of a triangle plus a 4-cycle: 4-regular on 7
        # vertices like C7^2, but not isomorphic to it
        c3c4 = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)]
        other = Graph(7, [e for e in itertools.combinations(range(7), 2) if e not in c3c4])
        assert find_isomorphism(g, other) is None
        assert len(calls) == 4

    def test_order_cap(self):
        with pytest.raises(GraphError):
            canonical_cert(Graph(17))

    @settings(max_examples=100, deadline=None)
    @given(graphs(max_n=8))
    def test_automorphisms_preserve_edges(self, g):
        group = graph_core.automorphism_group(g)
        assert group[0] == tuple(range(g.n))
        for p in group:
            assert sorted(p) == list(range(g.n))
            assert relabel(g, dict(enumerate(p))) == g

    @settings(max_examples=300, deadline=None)
    @given(graphs(max_n=12))
    @example(square_of_cycle(12))
    @example(Graph(12, [(i, (i + 1) % 6 + 6 * (i // 6)) for i in range(12)]))
    def test_refinement_matches_all_cells_reference(self, g):
        # the root partition, and each child of its first non-singleton
        # cell, against a refinement keyed by counts into every cell
        full = (1 << g.n) - 1
        root = graph_core._refine(g._adj, [full], [full])
        assert root == reference.refine_all_cells(g._adj, [full])
        at = next((i for i, c in enumerate(root) if c & (c - 1)), None)
        if at is None:
            return
        cell = root[at]
        for v in range(g.n):
            if cell >> v & 1:
                split = root[:at] + [1 << v, cell ^ (1 << v)] + root[at + 1:]
                assert (graph_core._refine(g._adj, split, [1 << v])
                        == reference.refine_all_cells(g._adj, split))

    @staticmethod
    def _symmetric_family():
        """Vertex-transitive and other highly symmetric graphs, whose searches
        go deep and record many automorphisms, plus the census(8) classes and
        the benchmark's pool."""
        cube = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                         (0, 4), (1, 5), (2, 6), (3, 7)])
        petersen = Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                         + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, 5 + i) for i in range(5)])
        pins = json.loads((Path(__file__).resolve().parent.parent / "bench" / "pins.json")
                          .read_text(encoding="utf-8"))
        pool = [Graph(int(n), [tuple(e) for e in entry["edges"]])
                for n, entries in sorted(pins["pool"].items()) for entry in entries]
        return ([square_of_cycle(n) for n in range(5, 17)]
                + [Graph(8, [(a, b) for a in range(4) for b in range(4, 8)]),
                   Graph(8, [e for e in itertools.combinations(range(8), 2) if not cube.has_edge(*e)]),
                   petersen]
                + list(oracle_graphs(8)) + pool)

    def test_every_refinement_of_a_search_matches_all_cells_reference(self, monkeypatch):
        # each partition a search refines, at every depth, against the
        # refinement keyed by counts into every cell: one call per node
        refine, descend = graph_core._refine, graph_core._CanonSearch._descend
        checked, depths = [], []

        def refine_checked(adj, cells, fresh):
            out = refine(adj, cells, fresh)
            assert out == reference.refine_all_cells(adj, list(cells))
            checked.append(out)
            return out

        def descend_counted(search, cells, fixed):
            depths.append(len(fixed))
            return descend(search, cells, fixed)

        monkeypatch.setattr(graph_core, "_refine", refine_checked)
        monkeypatch.setattr(graph_core._CanonSearch, "_descend", descend_counted)
        for g in self._symmetric_family():
            graph_core._canonical_search(g)
        # every node's partition came from one checked call: 222 roots, 619
        # children of a root, and 742 nodes below them, down to depth 6
        assert len(checked) == len(depths) == 1583
        assert sum(d >= 2 for d in depths) == 742 and max(depths) == 6

    @settings(max_examples=200, deadline=None)
    @given(graphs(max_n=12), st.data())
    def test_leaves_compare_row_by_row_as_by_code(self, g, data):
        # a second leaf, once a random labeling and once the first one moved
        # by a recorded automorphism, against the first: it becomes the best
        # leaf, ties it, or loses, as its integer code compares
        first = tuple(data.draw(st.permutations(range(g.n))))
        autos = graph_core._canonical_search(g)[1]
        p = data.draw(st.sampled_from(autos)) if autos else tuple(range(g.n))
        for second in (tuple(data.draw(st.permutations(range(g.n)))), tuple(p[v] for v in first)):
            search = graph_core._CanonSearch(g._adj, g.n)
            search._leaf(first, [0])
            search._leaf(second, [1])
            codes = reference.leaf_code(g._adj, first), reference.leaf_code(g._adj, second)
            best = second if codes[1] < codes[0] else first
            assert search.best_order == best
            assert Graph._of(search.best_rows) == relabel(g, {v: i for i, v in enumerate(best)})
            assert len(search.autos) == (codes[0] == codes[1])

    def test_labelings_and_automorphisms_pinned(self):
        # decompose traces follow these vertex orders, not only the
        # certificates, so the exact labeling and group of each graph is pinned
        rng = random.Random(2020)
        pool = list(reference.all_labeled_graphs(5))
        pool += [square_of_cycle(n) for n in range(5, 17)]
        pool += [reference.random_graph(rng, rng.randint(1, 16), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
                 for _ in range(200)]
        digest = hashlib.sha256()
        for g in pool:
            digest.update(repr((graph_core.canonical_labeling(g),
                                graph_core.automorphism_group(g))).encode("ascii"))
        assert digest.hexdigest() == (
            "22b98acde9e11e087aaa7648b25531de4557134a486e4e0d7ef22a6425d9768a")

    def test_search_triples_pinned(self, monkeypatch):
        # all that a search returns: the labeling, the automorphisms in the
        # order it recorded them (the generators the census carries), and
        # the rows of the form, on the pool above plus every child census(8)
        # labels
        rng = random.Random(2020)
        pool = list(reference.all_labeled_graphs(5))
        pool += [square_of_cycle(n) for n in range(5, 17)]
        pool += [reference.random_graph(rng, rng.randint(1, 16), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
                 for _ in range(200)]
        search = construct._canonical_search
        monkeypatch.setattr(construct, "_canonical_search", lambda g: pool.append(g) or search(g))
        construct.brute_force_uniform(8)
        monkeypatch.undo()
        assert len(pool) == 1236 + 172
        digest = hashlib.sha256()
        for g in pool:
            digest.update(repr(graph_core._canonical_search(g)).encode("ascii"))
        assert digest.hexdigest() == (
            "621d0134c1ea43e6a7962fd74f53c72e06a22e84438b35c0754bdc5a52abcd65")

    @staticmethod
    def _nodes(monkeypatch, graphs):
        """The canonical search nodes of each graph's labeling."""
        nodes = []
        descend = graph_core._CanonSearch._descend
        monkeypatch.setattr(graph_core._CanonSearch, "_descend",
                            lambda s, *args: nodes.append(s) or descend(s, *args))
        counts = []
        for g in graphs:
            del nodes[:]
            graph_core.canonical_labeling(g)
            counts.append(len(nodes))
        return counts

    def test_search_nodes_pinned(self, monkeypatch):
        # first-path pruning: a tie with the best leaf returns to the node
        # where the two paths part.  Before it, C5^2..C16^2 took
        # 25, 16, then 7 each, and the classes of census(8), in certificate
        # order, 51, 6, 6, 19, 3, 11, 3, 14, 9, 4
        assert self._nodes(monkeypatch, [square_of_cycle(n) for n in range(5, 17)]) == [15, 10] + [6] * 10
        assert self._nodes(monkeypatch, oracle_graphs(8)) == [34, 6, 6, 19, 3, 11, 3, 10, 8, 4]


class TestAgainstNetworkx:
    """Certificates and graph6 against networkx, which shares no code with
    them, on seeded graphs with up to 12 vertices."""

    @staticmethod
    def _pool(nx):
        rng = random.Random(2027)
        pool = [reference.random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.5, 0.8]))
                for _ in range(40)]
        # regular graphs share every degree count, and the census classes
        # are the graphs the oracle tells apart by certificate alone
        for d, n, seed in itertools.product((3, 4), (8, 10, 12), (1, 2, 3)):
            h = nx.random_regular_graph(d, n, seed=seed)
            pool.append(Graph(n, h.edges()))
        pool += oracle_graphs(8)
        return pool + [reference.random_permuted(rng, g) for g in pool]

    def test_equal_certificates_iff_isomorphic(self):
        nx = pytest.importorskip("networkx")
        pool = self._pool(nx)
        nxs = [nx.Graph(list(g.edges())) for g in pool]
        for h, g in zip(nxs, pool):
            h.add_nodes_from(range(g.n))
        certs = [canonical_cert(g) for g in pool]
        for i, j in itertools.combinations(range(len(pool)), 2):
            assert (certs[i] == certs[j]) == nx.is_isomorphic(nxs[i], nxs[j]), (pool[i], pool[j])

    def test_graph6_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for g in self._pool(nx):
            text = format_graph6(g)
            h = nx.from_graph6_bytes(text.encode("ascii"))
            assert parse_graph6(text) == g and h.number_of_nodes() == g.n
            assert sorted(tuple(sorted(e)) for e in h.edges()) == g.edges()
            assert nx.to_graph6_bytes(h, header=False).decode("ascii").strip() == text

    def test_automorphism_group_order_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        hosts = [complete_graph(5), octahedron()] + list(oracle_graphs(7)) + list(oracle_graphs(8))
        orders = []
        for g in hosts:
            h = nx.Graph(g.edges())
            h.add_nodes_from(range(g.n))
            matcher = nx.algorithms.isomorphism.GraphMatcher(h, h)
            orders.append(len(graph_core.automorphism_group(g)))
            assert orders[-1] == sum(1 for _ in matcher.isomorphisms_iter()), format_graph6(g)
        assert orders[:2] == [120, 48]
