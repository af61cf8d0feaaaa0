import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from unicon4 import (CutWitness, FanWitness, Graph, GraphError, add_edges, complete_graph,
                     connectivity_report, decompose, delete_vertex, disjoint_path_fan, ends,
                     fragments, is_k_connected, is_uniformly_4_connected, k6_minus_edge,
                     local_connectivity, minimum_cuts, octahedron, octahedron_plus, oracle_graphs,
                     removable_edges, square_of_cycle, vertex_connectivity)
from unicon4 import chording, connectivity
from unicon4.connectivity import _flow_paths, _kappa, _local_conn

import reference


def two_k5_share_4():
    return Graph(6, list(itertools.combinations(range(5), 2)) + [(i, 5) for i in (1, 2, 3, 4)])


class TestLocalConnectivity:
    def test_k6_pairs(self):
        g = complete_graph(6)
        assert all(local_connectivity(g, u, v) == 5
                   for u in range(6) for v in range(u + 1, 6))

    def test_k5_pairs(self):
        g = complete_graph(5)
        assert all(local_connectivity(g, u, v) == 4
                   for u in range(5) for v in range(u + 1, 5))

    def test_octahedron_antipodal(self):
        assert local_connectivity(octahedron(), 0, 3) == 4

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphError):
            local_connectivity(octahedron(), 2, 2)

    def test_cap_below_one_rejected(self):
        # min(value, cap) is below 1 there, yet the direct edge alone is one path
        g = square_of_cycle(8)
        for cap in (0, -2):
            with pytest.raises(GraphError):
                local_connectivity(g, 0, 1, cap)
            with pytest.raises(GraphError):
                local_connectivity(g, 0, 4, cap)

    def test_adjacent_pair_identity(self):
        rng = random.Random(21)
        for _ in range(30):
            g = reference.random_graph(rng, rng.randint(3, 7), 0.6)
            for u, v in g.edges():
                reduced = Graph(g.n, [e for e in g.edges() if e != (u, v)])
                assert local_connectivity(g, u, v) == 1 + local_connectivity(reduced, u, v)

    def test_exhaustive_disjoint_path_oracle(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.randint(2, 7)
            g = reference.random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
            for u in range(n):
                for v in range(u + 1, n):
                    assert local_connectivity(g, u, v) == reference.brute_local_connectivity(g, u, v)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_monotone_under_edge_addition(self, data):
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        n = rng.randint(3, 7)
        g = reference.random_graph(rng, n, 0.4)
        missing = [e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)]
        if not missing:
            return
        extra = rng.choice(missing)
        bigger = add_edges(g, [extra])
        for u in range(n):
            for v in range(u + 1, n):
                assert local_connectivity(bigger, u, v) >= local_connectivity(g, u, v)


def test_flow_paths_order_is_pinned():
    # the digest pins the exact paths, and their order, that the flow kernel
    # returns; witnesses and fans are built from them, so a kernel rewrite
    # must reproduce them, not merely their number
    rng = random.Random(20251018)
    out = []
    for _ in range(2400):
        n = rng.randint(2, 16)
        g = reference.random_graph(rng, n, rng.choice((0.25, 0.45, 0.65, 0.85)))
        s, t = rng.sample(range(n), 2)
        alive = rng.getrandbits(n) | rng.getrandbits(n) | 1 << s | 1 << t
        pick = rng.random()
        edges = g.edges()
        banned = (s, t) if pick < 0.5 else rng.choice(edges) if edges and pick < 0.7 else None
        out.append(_flow_paths(g._adj, s, t, rng.randint(1, n), alive, banned))
    assert sum(map(len, out)) == 5110
    assert hashlib.sha256(repr(out).encode()).hexdigest() == (
        "9f7e2e0775d3f67e41fe17c8fae0d132685b691787143527f5ef008dd215d383")


@pytest.mark.parametrize("n, edges, t, first, fan", [
    # the second path enters 5 and runs back through 3, undoing its pass-through
    (10, "0-1 0-2 1-3 1-6 3-5 2-4 4-5 5-8 6-7 7-9 9-8", 8,
     [0, 1, 3, 5, 8], ((0, 1, 6, 7, 9, 8), (0, 2, 4, 5, 8))),
    # the second path enters 4 and runs back from 3 to 2, against the arc 2 -> 3
    (13, "0-1 1-2 2-3 3-4 4-5 0-6 6-7 7-8 8-4 1-9 9-10 10-11 11-12 12-5", 5,
     [0, 1, 2, 3, 4, 5], ((0, 1, 9, 10, 11, 12, 5), (0, 6, 7, 8, 4, 5))),
])
def test_flow_cancels_the_first_path(n, edges, t, first, fan):
    # the shortest first path blocks a second one, so the augmentation must
    # run back along it; neither the pin above nor random graphs reach it
    g = Graph(n, [tuple(map(int, e.split("-"))) for e in edges.split()])
    assert _flow_paths(g._adj, 0, t, 1, (1 << n) - 1, None) == [first]
    assert disjoint_path_fan(g, 0, t, 2) == fan
    assert disjoint_path_fan(g, 0, t, 3) is None
    nx = pytest.importorskip("networkx")
    local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
    assert local_node_connectivity(_nx_graph(g), 0, t) == 2


class TestVertexConnectivity:
    def test_complete_convention(self):
        assert vertex_connectivity(complete_graph(5)) == 4
        assert vertex_connectivity(complete_graph(2)) == 1

    def test_octahedron(self):
        assert vertex_connectivity(octahedron()) == 4

    def test_wheel_from_octahedron(self):
        # octahedron minus a vertex is the 4-spoke wheel; no 1- or 2-subset
        # disconnects it (checked exhaustively), so kappa is 3, its min degree
        g, _ = delete_vertex(octahedron(), 5)
        for k in (1, 2):
            for cut in itertools.combinations(range(5), k):
                keep = [v for v in range(5) if v not in cut]
                seen = {keep[0]}
                stack = [keep[0]]
                while stack:
                    x = stack.pop()
                    for w in g.neighbors(x):
                        if w in keep and w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert len(seen) == len(keep)
        assert vertex_connectivity(g) == 3

    def test_at_most_min_degree(self):
        rng = random.Random(17)
        for _ in range(40):
            g = reference.random_graph(rng, rng.randint(2, 8), 0.5)
            if not g.is_complete():
                assert vertex_connectivity(g) <= g.min_degree()

    def test_is_k_connected_consistent(self):
        rng = random.Random(18)
        for _ in range(30):
            g = reference.random_graph(rng, rng.randint(2, 7), 0.6)
            kappa = vertex_connectivity(g)
            for k in range(1, g.n):
                assert is_k_connected(g, k) == (kappa >= k)


def _nx_graph(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def _mixed_graphs(seed, count):
    """Seeded graphs on 2..16 vertices: random ones from sparse (often
    disconnected) to dense, complete graphs, and complete graphs minus an
    edge, whose only non-adjacent pair is the one the probes must find."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(2, 16)
        if i % 6 == 0:
            yield complete_graph(n)
        elif i % 6 == 1:
            k_minus = Graph(n, [e for e in itertools.combinations(range(n), 2) if e != (0, 1)])
            yield reference.random_permuted(rng, k_minus)
        else:
            yield reference.random_graph(rng, n, rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)))


class TestAgainstNetworkx:
    """The flow layer against networkx, which shares no code with it, on
    graphs far beyond the exhaustive references' reach."""

    def test_vertex_connectivity_and_k_connected(self):
        nx = pytest.importorskip("networkx")
        for g in _mixed_graphs(41, 120):
            kappa = nx.node_connectivity(_nx_graph(g))
            assert vertex_connectivity(g) == kappa, g
            for k in range(1, 6):
                assert is_k_connected(g, k) == (kappa >= k), (g, k)
                if not g.is_complete():
                    assert _kappa(g, k) == min(k, kappa), (g, k)

    def test_local_connectivity(self):
        nx = pytest.importorskip("networkx")
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        for g in _mixed_graphs(43, 30):
            h = _nx_graph(g)
            for u, v in itertools.combinations(range(g.n), 2):
                if g.has_edge(u, v):
                    h.remove_edge(u, v)
                    want = 1 + local_node_connectivity(h, u, v)
                    h.add_edge(u, v)
                else:
                    want = local_node_connectivity(h, u, v)
                assert local_connectivity(g, u, v) == want, (g, u, v)
                for cap in range(1, 6):
                    assert local_connectivity(g, u, v, cap) == min(cap, want), (g, u, v, cap)

    def test_kernel_on_masks(self, monkeypatch):
        # the kernel behind every path count, chording's detours included,
        # on a vertex mask, with and without the edge uv as a path
        nx = pytest.importorskip("networkx")
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        taken = []
        for name in ("_greedy_paths", "_flow_paths"):
            original = getattr(connectivity, name)
            monkeypatch.setattr(connectivity, name,
                                lambda *args, f=original, name=name: taken.append(name) or f(*args))
        rng = random.Random(45)
        exits = set()
        for _ in range(150):
            n = rng.randint(4, 12)
            g = reference.random_graph(rng, n, rng.choice((0.3, 0.5, 0.7, 0.9)))
            u, v = rng.sample(range(n), 2)
            alive = 1 << u | 1 << v | sum(1 << x for x in range(n) if rng.random() < 0.7)
            h = nx.Graph()
            h.add_nodes_from(x for x in range(n) if alive >> x & 1)
            h.add_edges_from((x, y) for x, y in g.edges()
                             if alive >> x & alive >> y & 1 and {x, y} != {u, v})
            detours = local_node_connectivity(h, u, v)
            for direct in (False, True):
                want = detours + (direct and g.has_edge(u, v))
                for cap in range(1, 6):
                    taken.clear()
                    got = _local_conn(g._adj, u, v, cap, alive, direct)
                    assert got == min(cap, want), (g, u, v, bin(alive), direct, cap)
                    exits.add(taken[-1] if taken else "counted")
        assert exits == {"counted", "_greedy_paths", "_flow_paths"}

    def test_greedy_paths_bound_the_masked_value(self):
        # the kernel's greedy stage between the masked neighbourhoods of u
        # and v, less their common neighbours: never above the Menger value,
        # 0 exactly when it is, and sometimes short of it, so a flow runs
        nx = pytest.importorskip("networkx")
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        rng = random.Random(47)
        outcomes = set()
        for _ in range(300):
            n = rng.randint(4, 14)
            g = reference.random_graph(rng, n, rng.choice((0.2, 0.35, 0.5, 0.7)))
            u, v = rng.sample(range(n), 2)
            alive = 1 << u | 1 << v | sum(1 << x for x in range(n) if rng.random() < 0.8)
            common = g._adj[u] & g._adj[v] & alive
            starts = g._adj[u] & alive & ~common & ~(1 << v)
            goals = g._adj[v] & alive & ~common & ~(1 << u)
            inner = alive & ~common & ~(1 << u) & ~(1 << v)
            h = nx.Graph()
            h.add_nodes_from((u, v))
            h.add_edges_from((x, y) for x, y in g.edges() if inner >> x & inner >> y & 1)
            h.add_edges_from((u, x) for x in range(n) if starts >> x & 1)
            h.add_edges_from((v, x) for x in range(n) if goals >> x & 1)
            want = local_node_connectivity(h, u, v)
            for limit in range(1, 6):
                found = connectivity._greedy_paths(g._adj, starts, goals, limit, inner)
                assert found <= min(limit, want), (g, u, v, bin(alive), limit)
                assert (found == 0) == (want == 0), (g, u, v, bin(alive), limit)
                if found == limit:
                    outcomes.add("reached")
                elif found < min(limit, want):
                    outcomes.add("short")
        assert outcomes == {"reached", "short"}


@pytest.mark.parametrize("run, most", [
    (lambda g: is_k_connected(g, 4), 0), (removable_edges, 3), (decompose, 0),
    (connectivity_report, 0)], ids=["is_k_connected", "removable_edges", "decompose",
                                    "connectivity_report"])
def test_square_of_cycle_counts_without_flows(monkeypatch, run, most):
    # on C16^2 the greedy stage settles every count of is_k_connected and
    # decompose, and of the report's kappa, and the report fills every pair
    # from kappa (at most 10 flows when it counted each pair); the capped
    # counts across each removed edge, up to 9 per edge on the reduced
    # graphs, leave 3 shortfalls to a flow
    calls = []
    flow = connectivity._flow_paths
    for module in (connectivity, chording):
        monkeypatch.setattr(module, "_flow_paths", lambda *args: calls.append(args) or flow(*args))
    chording.clear_caches()
    try:
        run(square_of_cycle(16))
    finally:
        chording.clear_caches()
    assert len(calls) <= most


class TestUniform4:
    def test_bases_true(self):
        for g in (square_of_cycle(5), square_of_cycle(6), square_of_cycle(7)):
            verdict, witness = is_uniformly_4_connected(g)
            assert verdict and witness is None

    def test_k6_false_with_fan(self):
        verdict, witness = is_uniformly_4_connected(complete_graph(6))
        assert not verdict and isinstance(witness, FanWitness)
        assert len(witness.paths) == 5

    def test_oct_plus_witness_is_new_edge(self):
        verdict, witness = is_uniformly_4_connected(octahedron_plus())
        assert not verdict and witness.pair == (0, 3)

    def test_k6_minus_edge_false(self):
        verdict, witness = is_uniformly_4_connected(k6_minus_edge())
        assert not verdict and isinstance(witness, FanWitness)

    def test_low_connectivity_gives_cut(self):
        g = Graph(6, [(i, (i + 1) % 6) for i in range(6)])
        verdict, witness = is_uniformly_4_connected(g)
        assert not verdict and isinstance(witness, CutWitness)
        assert len(witness.vertices) < 4

    def test_fan_witness_revalidates(self):
        for g in (complete_graph(6), octahedron_plus(), complete_graph(7)):
            _, witness = is_uniformly_4_connected(g)
            u, v = witness.pair
            interiors = []
            for p in witness.paths:
                assert p[0] == u and p[-1] == v
                for a, b in zip(p, p[1:]):
                    assert g.has_edge(a, b)
                interiors.append(set(p[1:-1]))
            for a, b in itertools.combinations(range(5), 2):
                assert not (interiors[a] & interiors[b])

    def test_too_small_rejected(self):
        with pytest.raises(GraphError):
            is_uniformly_4_connected(complete_graph(4))

    def test_implies_degree_floor_and_floor_attained(self):
        rng = random.Random(99)
        seen = 0
        for _ in range(400):
            g = reference.random_graph(rng, rng.randint(5, 8), rng.choice([0.6, 0.7, 0.8]))
            if is_uniformly_4_connected(g)[0]:
                seen += 1
                degs = [g.degree(v) for v in range(g.n)]
                assert min(degs) == 4
        assert seen  # the sample really exercised the property

    def test_disjoint_path_fan_builder(self):
        fan = disjoint_path_fan(complete_graph(6), 0, 1, 5)
        assert fan is not None and len(fan) == 5
        assert disjoint_path_fan(octahedron(), 0, 1, 5) is None

    @pytest.mark.parametrize("u, v, k", [(0, 1, 0), (0, 1, -1), (0, 0, 3), (0, 9, 3), (-1, 2, 3)])
    def test_disjoint_path_fan_rejects_invalid_input(self, u, v, k):
        # k < 1 once returned one path, more than asked; u == v and a vertex
        # out of range once returned None, a silent "no"
        with pytest.raises(GraphError):
            disjoint_path_fan(square_of_cycle(8), u, v, k)


def _witness_pool():
    """Seeded random graphs with n = 5..12 at four densities, disconnected
    unions of two, and ten graphs of each connectivity 1, 2 and 3."""
    rng = random.Random(34)
    pool = [reference.random_graph(rng, rng.randint(5, 12), p)
            for p in (0.3, 0.5, 0.7, 0.9) for _ in range(40)]
    for _ in range(20):
        a = reference.random_graph(rng, rng.randint(2, 6), 0.7)
        b = reference.random_graph(rng, rng.randint(3, 6), 0.7)
        pool.append(Graph(a.n + b.n, a.edges() + [(u + a.n, v + a.n) for u, v in b.edges()]))
    by_kappa = {1: 0, 2: 0, 3: 0}
    while min(by_kappa.values()) < 10:
        g = reference.random_graph(rng, rng.randint(5, 12), rng.choice([0.3, 0.4, 0.5]))
        kappa = reference.least_cut(g)[0]
        if by_kappa.get(kappa, 10) < 10:
            by_kappa[kappa] += 1
            pool.append(g)
    return pool


def test_witnesses_and_k_connectivity_match_the_reference_cut():
    # a graph below 4-connectivity is refuted by the first cut, in
    # lexicographic order, of the least size, in both the test and the report
    cuts = 0
    for g in _witness_pool():
        kappa, cut = reference.least_cut(g)
        assert [is_k_connected(g, k) for k in range(6)] == [kappa >= k for k in range(6)], g.edges()
        verdict, witness = is_uniformly_4_connected(g)
        rep = connectivity_report(g)
        assert rep.kappa == kappa and (rep.uniform4, rep.witness) == (verdict, witness)
        if kappa < 4:
            assert not verdict and witness == CutWitness(cut), g.edges()
            cuts += 1
        else:
            assert not isinstance(witness, CutWitness)
    assert cuts >= 100


# every disjoint_path_fan(g, u, v, k), k = 1..5, over the ordered pairs of
# the pool below, as returned: the paths, their order, or None
FAN_SHA256 = "4857b665111ae8460237fca432753c5e88cbcffc756745fd59ff4425baae71c2"


def test_disjoint_path_fans_pinned():
    pool = [square_of_cycle(8), complete_graph(6), octahedron(), octahedron_plus(), k6_minus_edge()]
    pool += oracle_graphs(7)
    fans = [disjoint_path_fan(g, u, v, k) for g in pool
            for u, v in itertools.permutations(range(g.n), 2) for k in range(1, 6)]
    assert sum(f is None for f in fans) > 0 and sum(f is not None for f in fans) > 0
    assert hashlib.sha256(repr(fans).encode()).hexdigest() == FAN_SHA256


class TestCutsFragmentsEnds:
    def test_octahedron_minimum_cuts_are_neighborhoods(self):
        cuts = sorted(sorted(c) for c in minimum_cuts(octahedron()))
        assert cuts == [[0, 1, 3, 4], [0, 2, 3, 5], [1, 2, 4, 5]]

    def test_c7sq_cuts_all_size_4(self):
        cuts = minimum_cuts(square_of_cycle(7))
        assert cuts and all(len(c) == 4 for c in cuts)

    def test_complete_graph_has_no_cut(self):
        with pytest.raises(GraphError):
            minimum_cuts(complete_graph(5))

    def test_octahedron_fragments(self):
        frags = fragments(octahedron(), frozenset({1, 2, 4, 5}))
        assert [sorted(f.body) for f in frags] == [[0], [3]]

    def test_fragment_requires_minimum_cut(self):
        with pytest.raises(GraphError):
            fragments(octahedron(), frozenset({0, 1, 2}))
        with pytest.raises(GraphError):
            fragments(octahedron(), frozenset({0, 1, 2, 3}))  # right size, not a cut

    def test_fragment_cut_ids_are_range_checked(self):
        # unchecked, a negative id would shift by a negative count, and an id
        # past the end would read as "not a vertex cut"
        for cut, bad in (({-1, 2, 5, 6}, -1), ({1, 2, 5, 99}, 99)):
            with pytest.raises(GraphError, match=f"^vertex {bad} outside 0..7$"):
                fragments(square_of_cycle(8), frozenset(cut))

    def test_fragment_cut_is_a_frozenset_of_distinct_ids(self):
        # the caller's list was once stored as the cut, and a repeated id
        # passed the size check, then read as "not a vertex cut"
        g = square_of_cycle(8)
        frags = fragments(g, [0, 1, 4, 5])
        assert frags == fragments(g, frozenset({0, 1, 4, 5}))
        assert [sorted(f.body) for f in frags] == [[2, 3], [6, 7]]
        assert {type(f.cut) for f in frags} == {frozenset}
        with pytest.raises(GraphError, match="^cut size 3 is not the minimum 4$"):
            fragments(g, [0, 0, 1, 4])

    def test_two_components_give_two_fragments(self):
        for cut in minimum_cuts(two_k5_share_4()):
            frags = fragments(two_k5_share_4(), cut)
            assert len(frags) == 2

    def test_fragment_body_sealed_from_rest(self):
        g = square_of_cycle(7)
        for cut in minimum_cuts(g):
            for frag in fragments(g, cut):
                outside = set(range(g.n)) - frag.cut - frag.body
                for u in frag.body:
                    assert not (set(g.neighbors(u)) & outside)

    def test_octahedron_ends_are_singletons(self):
        got = sorted(sorted(e.fragment.body) for e in ends(octahedron()))
        assert got == [[0], [1], [2], [3], [4], [5]]

    def test_two_k5_ends(self):
        got = sorted(sorted(e.fragment.body) for e in ends(two_k5_share_4()))
        assert got == [[0], [5]]

    def test_ends_match_the_definition(self):
        # seeded random graphs of each connectivity 1..3, then the fixtures
        rng = random.Random(67)
        pool, by_kappa = [], {1: 0, 2: 0, 3: 0}
        while min(by_kappa.values()) < 15:
            g = reference.random_graph(rng, rng.randint(5, 10), rng.choice([0.3, 0.5, 0.7]))
            kappa = vertex_connectivity(g)
            if by_kappa.get(kappa, 15) < 15:
                by_kappa[kappa] += 1
                pool.append(g)
        pool += [octahedron(), octahedron_plus(), k6_minus_edge(), two_k5_share_4()]
        pool += [square_of_cycle(n) for n in range(7, 11)]
        for g in pool:
            got = [(sorted(e.fragment.body), sorted(e.fragment.cut)) for e in ends(g)]
            assert got == reference.ends_by_definition(g), g.edges()
            # an end's one cut is the neighbourhood of its body
            for body, cut in got:
                assert set(cut) == {w for v in body for w in g.neighbors(v)} - set(body)


class TestReport:
    def test_octahedron_report(self):
        rep = connectivity_report(octahedron())
        assert rep.kappa == 4 and rep.uniform4 and rep.witness is None
        assert max(max(r) for r in rep.local) == 4
        for u in range(6):
            for v in range(6):
                assert rep.local[u][v] == rep.local[v][u]

    def test_kappa_is_min_over_nonadjacent(self):
        rng = random.Random(31)
        for _ in range(25):
            g = reference.random_graph(rng, rng.randint(2, 7), 0.5)
            rep = connectivity_report(g)
            nonadj = [rep.local[u][v] for u in range(g.n) for v in range(u + 1, g.n)
                      if not g.has_edge(u, v)]
            if nonadj:
                assert rep.kappa == min(nonadj)
            else:
                assert rep.kappa == g.n - 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matrix_matches_local_connectivity(self, data):
        # pairs whose lesser degree is kappa are filled without a count
        rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
        g = reference.random_graph(rng, data.draw(st.integers(2, 10)), rng.choice([0.3, 0.5, 0.7, 0.9]))
        rep = connectivity_report(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert rep.local[u][v] == rep.local[v][u] == local_connectivity(g, u, v), (u, v)

    def test_verdict_matches_is_uniformly_4_connected(self):
        rng = random.Random(53)
        pool = [complete_graph(5), complete_graph(6), octahedron_plus()]
        pool += [square_of_cycle(n) for n in range(5, 13)]
        pool += [reference.random_graph(rng, rng.randint(5, 12), rng.choice([0.5, 0.7, 0.9]))
                 for _ in range(200)]
        for g in pool:
            rep = connectivity_report(g)
            assert (rep.uniform4, rep.witness) == is_uniformly_4_connected(g)
