import hashlib
import itertools
import random

import pytest

from unicon4 import (BudgetExceeded, Graph, GraphError, SearchBudget, classify_quasi_3cc,
                     complete_graph, cycle_graph, exists_e_plus_quasi_3cc_path,
                     exists_quasi_3cc_path, exists_quasi_chord, is_e_plus_quasi_3cc,
                     octahedron, remove_edges, square_of_cycle, validate_path,
                     verify_witness)
from unicon4 import chording, connectivity, construct

import reference


@pytest.fixture(autouse=True)
def _fresh_caches():
    chording.clear_caches()
    yield


def reference_exists_q3cc(g, u, v):
    return any(classify_quasi_3cc(g, p) is not None
               for p in reference.all_simple_paths(g, u, v))


class TestPathValidation:
    def test_valid(self):
        assert validate_path(octahedron(), [0, 1, 2]) == (0, 1, 2)

    def test_too_short(self):
        with pytest.raises(GraphError):
            validate_path(octahedron(), [0])

    def test_repeat(self):
        with pytest.raises(GraphError):
            validate_path(octahedron(), [0, 1, 0])

    def test_non_edge(self):
        with pytest.raises(GraphError):
            validate_path(octahedron(), [0, 3])

    @pytest.mark.parametrize("u, v", [(0, 8), (0, -1), (3, 3)])
    def test_sweeps_reject_bad_ends(self, u, v):
        # the ends are checked before the degree screens read them
        g = square_of_cycle(8)
        for query in (exists_quasi_3cc_path, exists_quasi_chord,
                      lambda g, u, v: exists_e_plus_quasi_3cc_path(g, u, v, (0, 4))):
            with pytest.raises(GraphError):
                query(g, u, v)


class TestClassify:
    def test_k5_edge_has_three_detours(self):
        w = classify_quasi_3cc(complete_graph(5), (0, 1))
        assert w is not None and w.subpath_ends == (0, 1)
        assert w.fan == ((0, 2, 1), (0, 3, 1), (0, 4, 1))

    def test_octahedron_edge_has_a_witness(self):
        # exhaustive disjoint-path search in the octahedron minus edge 01
        # finds 0-2-1, 0-5-1 and 0-4-3-1: three internally disjoint detours
        reduced = remove_edges(octahedron(), [(0, 1)])
        assert reference.brute_local_connectivity(reduced, 0, 1) >= 3
        w = classify_quasi_3cc(octahedron(), (0, 1))
        assert w is not None and verify_witness(octahedron(), w)

    def test_failed_revalidation_raises(self, monkeypatch):
        # the guard is an explicit raise, so it survives python -O
        monkeypatch.setattr(chording, "verify_witness", lambda g, w: False)
        with pytest.raises(RuntimeError):
            classify_quasi_3cc(complete_graph(5), (0, 1))

    def test_plain_cycle_has_none(self):
        g = cycle_graph(6)
        for u in range(6):
            for v in range(u + 1, 6):
                for p in reference.all_simple_paths(g, u, v):
                    assert classify_quasi_3cc(g, p) is None

    def test_whole_path_subpath_case(self):
        # only the full path 0-1-2 carries the fan: 0 and 2 have three
        # detours avoiding 1, while neither single edge has any
        g = Graph(6, [(0, 1), (1, 2), (0, 3), (2, 3), (0, 4), (2, 4), (0, 5), (2, 5)])
        w = classify_quasi_3cc(g, (0, 1, 2))
        assert w is not None and w.subpath_ends == (0, 2)

    def test_invalid_path_rejected(self):
        with pytest.raises(GraphError):
            classify_quasi_3cc(octahedron(), (0, 3))

    def test_witnesses_revalidate(self):
        rng = random.Random(7)
        found = 0
        for _ in range(60):
            n = rng.randint(4, 7)
            g = reference.random_graph(rng, n, rng.choice([0.5, 0.7, 0.9]))
            u, v = rng.sample(range(n), 2)
            for p in reference.all_simple_paths(g, u, v)[:20]:
                w = classify_quasi_3cc(g, p)
                if w is not None:
                    found += 1
                    assert verify_witness(g, w)
        assert found > 20

    @pytest.mark.parametrize("change", [
        {"path": (0, 1, 2, 6)},                                # a non-edge on the path
        {"subpath_ends": (0, 6)},                              # an end off the path
        {"subpath_ends": (1, 0)},                              # i >= j
        {"fan": ((0, 3, 1), (0, 4, 1))},                       # two detours
        {"fan": ((0, 3, 6, 1), (0, 4, 1), (0, 5, 1))},         # a non-edge on a detour
        {"fan": ((0, 3, 4), (0, 4, 1), (0, 5, 1))},            # a detour to the wrong end
        {"fan": ((0, 1), (0, 4, 1), (0, 5, 1))},               # the subpath as a detour
        {"fan": ((0, 2, 1), (0, 4, 1), (0, 5, 1))},            # a detour through the path
        {"fan": ((0, 3, 1), (0, 3, 4, 1), (0, 5, 1))},         # a shared inner vertex
    ])
    def test_mutated_witnesses_are_refused(self, change):
        g = remove_edges(complete_graph(7), [(2, 6), (3, 6)])
        w = chording.ChordingWitness((0, 1, 2), (0, 1), ((0, 3, 1), (0, 4, 1), (0, 5, 1)))
        assert verify_witness(g, w)
        assert not verify_witness(g, w._replace(**change))

    def test_witness_survives_in_supergraph(self):
        # removing edges away from a witness's vertices keeps the witness
        rng = random.Random(11)
        for _ in range(40):
            g = reference.random_graph(rng, 7, 0.6)
            u, v = rng.sample(range(7), 2)
            for p in reference.all_simple_paths(g, u, v)[:10]:
                w = classify_quasi_3cc(g, p)
                if w is None:
                    continue
                involved = set(p) | set(itertools.chain.from_iterable(w.fan))
                removable = [e for e in g.edges()
                             if not (set(e) & involved)]
                if removable:
                    smaller = remove_edges(g, removable[:1])
                    assert verify_witness(smaller, w)
                    assert classify_quasi_3cc(smaller, p) is not None


def _random_path(rng, g):
    path = [rng.randrange(g.n)]
    while True:
        nbrs = [w for w in g.neighbors(path[-1]) if w not in path]
        if not nbrs or (len(path) > 1 and rng.random() < 0.2):
            return tuple(path)
        path.append(rng.choice(nbrs))


class TestFanLevels:
    def test_against_networkx(self):
        # networkx shares no code with the counting or the flow kernel: a
        # level is min(3, [ab is a detour] + the local connectivity of a, b
        # once the rest of the path and the edge ab are deleted)
        nx = pytest.importorskip("networkx")
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        rng = random.Random(71)
        checked = 0
        while checked < 150:
            n = rng.randint(5, 12)
            g = reference.random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
            p = _random_path(rng, g)
            if len(p) < 2:
                continue
            checked += 1
            want = []
            for i, j in chording._subpaths(p):
                a, b = p[i], p[j]
                keep = (set(range(n)) - set(p)) | {a, b}
                h = nx.Graph()
                h.add_nodes_from(keep)
                h.add_edges_from((x, y) for x, y in g.edges()
                                 if x in keep and y in keep and {x, y} != {a, b})
                direct = 1 if j > i + 1 and g.has_edge(a, b) else 0
                want.append(min(3, direct + local_node_connectivity(h, a, b)))
            assert chording._fan_levels(g, p) == tuple(want), (g, p)

    @pytest.mark.parametrize("n, max_flows, chording_paths", [(8, 50, 7), (10, 200, 16)])
    def test_counting_settles_most_levels(self, monkeypatch, n, max_flows, chording_paths):
        # a flow for every level took 736 and 3,238 calls over the 70 and
        # 210 simple 0-1 paths of C8^2 and C10^2
        calls = []
        flow_paths = connectivity._flow_paths
        monkeypatch.setattr(connectivity, "_flow_paths",
                            lambda *args: calls.append(args) or flow_paths(*args))
        chording._fan_levels.cache_clear()
        g = square_of_cycle(n)
        hits = sum(3 in chording._fan_levels(g, p) for p in reference.all_simple_paths(g, 0, 1))
        assert hits == chording_paths
        assert len(calls) <= max_flows

    def test_degree_cap_bound_against_networkx(self):
        # the graphs and paths of test_against_networkx; the bound may say
        # "cannot reach k" only when no level, in g and in g+e, reaches k
        nx = pytest.importorskip("networkx")
        rng, erng = random.Random(71), random.Random(72)
        checked = pruned = 0
        while checked < 150:
            n = rng.randint(5, 12)
            g = reference.random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
            p = _random_path(rng, g)
            if len(p) < 2:
                continue
            checked += 1
            missing = [e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)]
            graphs = [g] + ([Graph(n, g.edges() + [erng.choice(missing)])] if missing else [])
            for h in graphs:
                top = max(_nx_levels(nx, h, p))
                for k in (2, 3):
                    if not chording._may_reach(h._adj, p, k):
                        pruned += 1
                        assert top < k, (h, p, k)
        assert pruned > 100

    def test_c16_square_replay_runs_no_chording_flow(self, monkeypatch):
        # every 0-1 path sweep of the replay is settled by the degree caps;
        # building the fan levels of every path took 5,517 flows
        trace = construct.decompose(square_of_cycle(16))
        calls = []
        for name in ("_flow_paths", "_local_conn"):
            original = getattr(chording, name)
            monkeypatch.setattr(chording, name,
                                lambda *args, f=original: calls.append(args) or f(*args))
        construct.replay(trace)
        assert len(calls) <= 50


def _nx_levels(nx, g, p):
    """The fan level of every subpath of p, from networkx's local connectivity."""
    levels = []
    for i, j in chording._subpaths(p):
        a, b = p[i], p[j]
        keep = (set(range(g.n)) - set(p)) | {a, b}
        h = nx.Graph()
        h.add_nodes_from(keep)
        h.add_edges_from((x, y) for x, y in g.edges()
                         if x in keep and y in keep and {x, y} != {a, b})
        direct = 1 if j > i + 1 and g.has_edge(a, b) else 0
        levels.append(min(3, direct + nx.algorithms.connectivity.local_node_connectivity(h, a, b)))
    return levels


def _nx_has_arcs(nx, g, u, v, p):
    """Whether u and v keep two internally disjoint arcs of length >= 2 once
    the interior of p is deleted, from networkx's local connectivity."""
    h = nx.Graph()
    h.add_nodes_from(set(range(g.n)) - set(p[1:-1]))
    h.add_edges_from((x, y) for x, y in g.edges()
                     if h.has_node(x) and h.has_node(y) and {x, y} != {u, v})
    return nx.algorithms.connectivity.local_node_connectivity(h, u, v) >= 2


def _recorded_screens(monkeypatch):
    """Wrap _sweep so that each sweep's degree screen is recorded as
    (predicate, possible)."""
    screens = []
    sweep = chording._sweep

    def recording(key, g, u, v, budget, hit, what, possible, screen=None):
        screens.append((key[0], possible))
        return sweep(key, g, u, v, budget, hit, what, possible, screen)

    monkeypatch.setattr(chording, "_sweep", recording)
    return screens


class TestSweepScreens:
    def test_settled_sweeps_against_networkx(self, monkeypatch):
        # a sweep settled from degrees must have no path that reaches fan
        # level 3 in g (q3cc) or in g + e (e-plus), and no path that leaves
        # u and v two disjoint arcs (quasi chord); the paths come from the
        # reference enumeration and the levels from networkx
        nx = pytest.importorskip("networkx")
        screens = _recorded_screens(monkeypatch)
        rng = random.Random(79)
        for _ in range(150):
            n = rng.randint(5, 9)
            g = reference.random_graph(rng, n, rng.choice([0.3, 0.45, 0.6]))
            u, v = rng.sample(range(n), 2)
            missing = [e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)]
            if not missing:
                continue
            e = rng.choice(missing)
            plus = Graph(n, g.edges() + [e])
            paths = reference.all_simple_paths(g, u, v)
            chording.find_quasi_3cc_path(g, u, v)
            chording.find_e_plus_quasi_3cc_path(g, u, v, e)
            chording.find_quasi_chord(g, u, v)
            for (what, possible), h in zip(screens[-3:], (g, plus, None)):
                if possible:
                    continue
                for p in paths:
                    if h is None:
                        assert not _nx_has_arcs(nx, g, u, v, p), (g, u, v, p)
                    else:
                        assert max(_nx_levels(nx, h, p)) < 3, (what, g, u, v, e, p)
        for what in ("q3cc", "eplus", "qchord"):
            outcomes = [possible for name, possible in screens if name == what]
            assert outcomes.count(False) >= 80 and outcomes.count(True) >= 40, what

    def test_ordered_paths_against_the_listed_sweep(self):
        # unscreened, the generator yields exactly the listed sweep, sorted
        # by (length, lex); screened by the rows of g or of g + e, it drops
        # no path that passes the degree caps of those rows, and keeps order
        rng = random.Random(83)
        dropped = 0
        for _ in range(1000):
            n = rng.randint(5, 8)
            g = reference.random_graph(rng, n, rng.choice([0.3, 0.45, 0.6, 0.8]))
            u, v = rng.sample(range(n), 2)
            paths, complete = chording._simple_paths(g, u, v, chording._kn_path_count(n), n)
            assert complete
            assert list(paths) == sorted(reference.all_simple_paths(g, u, v), key=lambda p: (len(p), p))
            assert list(chording._paths_in_order(g._adj, u, v)) == list(paths), (g, u, v)
            missing = [e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)]
            screens = [g._adj] + ([chording._plus_edge(g, rng.choice(missing))] if missing else [])
            for screen in screens:
                got = list(chording._paths_in_order(g._adj, u, v, screen))
                in_order = iter(paths)
                assert all(p in in_order for p in got), (g, u, v, screen)
                kept = iter(got)
                assert all(p in kept for p in paths if chording._may_reach(screen, p, 3)), (g, u, v, screen)
                dropped += len(paths) - len(got)
        assert dropped > 30_000  # 38,261 of the 116,730 paths listed for 1,985 screens

    def test_c16_square_replay_screens_no_path(self, monkeypatch):
        # every sweep of the replay is settled from degrees; screening each
        # path took 1,971 degree-cap checks
        trace = construct.decompose(square_of_cycle(16))
        calls = []
        may_reach = chording._may_reach
        monkeypatch.setattr(chording, "_may_reach",
                            lambda *args: calls.append(args) or may_reach(*args))
        construct.replay(trace)
        assert calls == []

    def test_cold_n8_closure_screens_few_paths(self, monkeypatch):
        # 7,106 degree-cap checks when every path of every sweep was
        # screened; the certificates are unchanged
        calls = []
        may_reach = chording._may_reach
        monkeypatch.setattr(chording, "_may_reach",
                            lambda *args: calls.append(args) or may_reach(*args))
        cat = construct.generate_catalog(8)
        text = "\n".join(sorted(c.decode("ascii") for c in cat.certs_by_n[8]))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "e90b9a2a5be36e11a71871e1722b0ef1320d26def0dbbdfbfc36504c9848ffed")
        assert len(calls) <= 1300


class TestExistsQ3cc:
    def test_k5(self):
        assert exists_quasi_3cc_path(complete_graph(5), 0, 1)

    def test_cycle_never(self):
        g = cycle_graph(6)
        for u in range(6):
            for v in range(u + 1, 6):
                assert not exists_quasi_3cc_path(g, u, v)

    def test_octahedron_antipodal_matches_enumeration(self):
        want = reference_exists_q3cc(octahedron(), 0, 3)
        assert exists_quasi_3cc_path(octahedron(), 0, 3) == want

    def test_classify_implies_exists(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = reference.random_graph(rng, n, 0.6)
            u, v = rng.sample(range(n), 2)
            paths = reference.all_simple_paths(g, u, v)
            if any(classify_quasi_3cc(g, p) for p in paths):
                assert exists_quasi_3cc_path(g, u, v)

    def test_agrees_with_reference(self):
        rng = random.Random(29)
        for _ in range(50):
            n = rng.randint(3, 7)
            g = reference.random_graph(rng, n, rng.choice([0.4, 0.6, 0.8]))
            u, v = rng.sample(range(n), 2)
            assert exists_quasi_3cc_path(g, u, v) == reference_exists_q3cc(g, u, v)


class TestEPlus:
    def test_requires_missing_edge(self):
        with pytest.raises(GraphError):
            is_e_plus_quasi_3cc(octahedron(), (0, 1), (0, 2))

    def test_a_path_edge_is_refused_as_present(self):
        # every pair of a valid path is an edge of g, so an added edge on the
        # path is refused by the missing-edge check, in either order
        for e in ((1, 2), (2, 1)):
            with pytest.raises(GraphError, match="already present"):
                is_e_plus_quasi_3cc(octahedron(), (0, 1, 2), e)

    def test_already_chording_is_not_e_plus(self):
        g = remove_edges(complete_graph(6), [(4, 5)])
        assert classify_quasi_3cc(g, (0, 1)) is not None
        assert not is_e_plus_quasi_3cc(g, (0, 1), (4, 5))

    def test_octahedron_fixture(self):
        reduced = remove_edges(octahedron(), [(0, 1)])
        want = (classify_quasi_3cc(reduced, (0, 2, 1)) is None
                and classify_quasi_3cc(octahedron(), (0, 2, 1)) is not None)
        assert is_e_plus_quasi_3cc(reduced, (0, 2, 1), (0, 1)) == want

    def test_cycle_plus_far_edge_is_not_enough(self):
        assert not is_e_plus_quasi_3cc(cycle_graph(6), (0, 1), (2, 5))

    def test_k5_minus_two_edges_fixture(self):
        # value fixed by comparing classifications with and without the edge
        # over every 0-1 path of the 8-edge graph
        g = remove_edges(complete_graph(5), [(0, 2), (1, 3)])
        plus = Graph(5, list(g.edges()) + [(0, 2)])
        want = any(classify_quasi_3cc(g, p) is None and classify_quasi_3cc(plus, p) is not None
                   for p in reference.all_simple_paths(g, 0, 1))
        assert exists_e_plus_quasi_3cc_path(g, 0, 1, (0, 2)) == want

    def test_exists_agrees_with_direct_definition(self):
        rng = random.Random(41)
        for _ in range(40):
            n = rng.randint(4, 7)
            g = reference.random_graph(rng, n, 0.55)
            missing = [e for e in itertools.combinations(range(n), 2) if not g.has_edge(*e)]
            if not missing:
                continue
            e = rng.choice(missing)
            u, v = rng.sample(range(n), 2)
            gplus = Graph(n, list(g.edges()) + [e])
            want = any(classify_quasi_3cc(g, p) is None
                       and classify_quasi_3cc(gplus, p) is not None
                       for p in reference.all_simple_paths(g, u, v))
            assert exists_e_plus_quasi_3cc_path(g, u, v, e) == want
            found = chording.find_e_plus_quasi_3cc_path(g, u, v, e)
            assert (found is not None) == want
            if found is not None:
                path, witness = found
                assert verify_witness(gplus, witness)
                assert classify_quasi_3cc(g, path) is None


class TestQuasiChord:
    def test_hexagon_with_handle(self):
        g = Graph(7, [(i, (i + 1) % 6) for i in range(6)] + [(0, 6), (3, 6)])
        assert exists_quasi_chord(g, 0, 3)

    def test_tree_has_none(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
        assert not exists_quasi_chord(g, 0, 3)

    def test_k5_default_vs_strict(self):
        # cycle 0-3-1-4-0 passes through 0,1 non-consecutively and the path
        # 0-2-1 meets it only at the ends; adjacency of 0 and 1 does not
        # matter under this reading
        assert exists_quasi_chord(complete_graph(5), 0, 1)

    def test_agrees_with_networkx(self):
        # a path p is a quasi chord iff u, v stay 2-connected, without the
        # edge uv, once the interior of p is deleted
        nx = pytest.importorskip("networkx")
        rng = random.Random(73)
        seen = set()
        for _ in range(60):
            n = rng.randint(5, 8)
            g = reference.random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
            u, v = rng.sample(range(n), 2)
            full = nx.Graph(g.edges())
            full.add_nodes_from(range(n))
            want = False
            for p in reference.all_simple_paths(g, u, v):
                h = full.subgraph(set(range(n)) - set(p[1:-1])).copy()
                if h.has_edge(u, v):
                    h.remove_edge(u, v)
                if nx.algorithms.connectivity.local_node_connectivity(h, u, v) >= 2:
                    want = True
                    break
            assert exists_quasi_chord(g, u, v) == want, (g, u, v)
            seen.add(want)
        assert seen == {False, True}


class TestBudget:
    def test_truncation_raises_instead_of_false(self):
        # the 7-cycle has two 0-3 paths and no witness; a one-path budget
        # must refuse to answer
        with pytest.raises(BudgetExceeded):
            exists_quasi_3cc_path(cycle_graph(7), 0, 3, SearchBudget(max_paths=1))

    def test_early_witness_beats_the_cap(self):
        assert exists_quasi_3cc_path(complete_graph(7), 0, 1, SearchBudget(max_paths=3))

    def test_max_len_truncation_raises(self):
        with pytest.raises(BudgetExceeded):
            exists_quasi_3cc_path(cycle_graph(7), 0, 3, SearchBudget(max_len=3))

    def test_default_budget_is_complete_through_n8(self):
        rng = random.Random(47)
        for _ in range(10):
            g = reference.random_graph(rng, 8, 0.7)
            u, v = rng.sample(range(8), 2)
            got = exists_quasi_3cc_path(g, u, v)  # must not raise
            assert got == reference_exists_q3cc(g, u, v)

    def test_complete_graph_path_count_bounds_every_sweep(self):
        # K_n has the most simple u-v paths of any n-vertex graph; a budget
        # of that many paths truncates no sweep on n vertices
        for n in range(3, 10):
            bound = chording._kn_path_count(n)
            paths, complete = chording._simple_paths(complete_graph(n), 0, 1, bound, n)
            assert complete and len(paths) == bound == len(set(paths))
            if n <= 7:
                assert len(reference.all_simple_paths(complete_graph(n), 0, 1)) == bound
            _, complete = chording._simple_paths(complete_graph(n), 0, 1, bound - 1, n)
            assert not complete
        assert [chording._kn_path_count(n) for n in (8, 9)] == [1957, 13700]

    def test_settled_sweep_still_raises_on_truncation(self):
        # no vertex of the 7-cycle has degree 4, so every sweep is settled
        # from degrees, yet its enumeration is still what decides between
        # "no path" and "unresolved"; the refusal must not be cached as False
        g = cycle_graph(7)
        queries = (lambda b: exists_quasi_3cc_path(g, 0, 3, b),
                   lambda b: exists_e_plus_quasi_3cc_path(g, 0, 3, (1, 5), b),
                   lambda b: exists_quasi_chord(g, 0, 3, b))
        for query in queries:
            with pytest.raises(BudgetExceeded):
                query(SearchBudget(max_paths=1))
            assert query(SearchBudget()) is False

    def test_settled_sweep_enumerates_nothing_it_cannot_truncate(self):
        g = cycle_graph(7)
        assert exists_quasi_3cc_path(g, 0, 3) is False
        assert exists_quasi_chord(g, 0, 3) is False
        assert chording._simple_paths.cache_info().misses == 0

    def test_verdicts_stay_bounded(self, monkeypatch):
        g = reference.random_graph(random.Random(5), 8, 0.6)
        pairs = list(itertools.combinations(range(g.n), 2))

        def answers():
            return [(exists_quasi_3cc_path(g, u, v), exists_quasi_chord(g, u, v)) for u, v in pairs]

        want = answers()
        assert {a for pair in want for a in pair} == {False, True}
        chording.clear_caches()
        monkeypatch.setattr(chording, "_VERDICTS_MAX", 4)
        assert answers() == want
        assert len(chording._verdicts) == 4
        assert answers() == want

    def test_budget_fields_positive(self):
        with pytest.raises(GraphError):
            SearchBudget(max_paths=0)
        for fields in ({"max_paths": 2.5}, {"max_paths": True}, {"max_paths": "3"},
                       {"max_len": 1.5}, {"max_len": False}, {"max_len": 0}, {"max_len": -2}):
            with pytest.raises(GraphError):
                SearchBudget(**fields)
        assert SearchBudget(max_paths=3, max_len=4) == SearchBudget(3, 4)

    def test_path_bound_is_sound(self):
        # Bregman's bound may never fall below the true path count, which the
        # reference enumeration gives without sharing any code with it
        rng = random.Random(23)
        adjacent = set()
        for _ in range(400):
            n = rng.randint(2, 8)
            g = reference.random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
            u, v = rng.sample(range(n), 2)
            adjacent.add(g.has_edge(u, v))
            assert chording._path_bound(g._adj, u, v) >= len(reference.all_simple_paths(g, u, v))
        assert adjacent == {False, True}
        for n in range(3, 9):
            k, c = complete_graph(n), cycle_graph(n)
            assert chording._path_bound(k._adj, 0, 1) >= chording._kn_path_count(n)
            for v in range(1, n):
                assert chording._path_bound(c._adj, 0, v) >= len(reference.all_simple_paths(c, 0, v))
        lone = Graph(5, [(1, 2), (2, 3), (3, 4), (1, 4)])
        assert chording._path_bound(lone._adj, 0, 3) >= len(reference.all_simple_paths(lone, 0, 3)) == 0

    def test_settled_sweep_past_n11_enumerates_only_when_truncatable(self):
        # at n = 13 the default budget is below P(13), yet the Bregman bound
        # on the 1-6 paths (about 1.5e5; 474 paths) shows the sweep cannot be
        # cut short; vertex 1 has degree 2, so all three sweeps are settled
        g = remove_edges(square_of_cycle(13), [(0, 1), (1, 2)])
        queries = (lambda b: exists_quasi_3cc_path(g, 1, 6, b),
                   lambda b: exists_e_plus_quasi_3cc_path(g, 1, 6, (0, 1), b),
                   lambda b: exists_quasi_chord(g, 1, 6, b))
        assert chording._can_truncate(SearchBudget(), g.n)
        assert [query(SearchBudget()) for query in queries] == [False] * 3
        assert chording._simple_paths.cache_info().misses == 0
        for budget in (SearchBudget(max_paths=1), SearchBudget(max_len=4)):
            for query in queries:
                with pytest.raises(BudgetExceeded):
                    query(budget)
