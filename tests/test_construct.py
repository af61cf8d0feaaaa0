import collections
import hashlib
import itertools
import json
import random
import re

import pytest

from unicon4 import (CertMismatch, Graph, GraphError, NotUniform, SearchBudget, StepInvalid,
                     TraceFormatError, base_graph, brute_force_uniform, canonical_cert,
                     complete_graph, decompose, generate_all, generate_catalog,
                     is_uniformly_4_connected, octahedron, octahedron_plus, oracle_graphs, replay,
                     square_of_cycle, trace_from_json, trace_to_json, verify_theorem)
from unicon4 import chording, connectivity, construct, graph_core, transform
from unicon4.graph_core import are_isomorphic, format_graph6, relabel

import reference

K44 = Graph(8, [(a, b) for a in range(4) for b in range(4, 8)])

CENSUS_SHA256 = {
    5: "41ea650d4b1c11143ca7ec83c65a5e6be2adb8559eea320bbeface2e045b0773",
    6: "8f05b92d564696dfa095a7d02ec096b6bbc2540cb7c7d8bfb79a2e92f7b80b2b",
    7: "48d5225eb0da816ecaedee8ae520dfb82f44dd1a666cc1e6cb9d5fee68f2446d",
    8: "d793f62d54c7cadec4b4eb2860c6bfb24f660314804354441c62cfc2a6b2eab6",
}


class TestOracle:
    def test_n5_is_k5_only(self):
        assert brute_force_uniform(5) == {canonical_cert(complete_graph(5))}

    def test_n6_is_octahedron_only(self):
        assert brute_force_uniform(6) == {canonical_cert(octahedron())}

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            brute_force_uniform(4)
        with pytest.raises(GraphError):
            brute_force_uniform(12)

    def test_census_digests(self):
        # sha256 of the sorted certificates, one per line, as taken from
        # the earlier labeled sweep (the same rule as bench/stats.cert_digest)
        for n, want in CENSUS_SHA256.items():
            text = "\n".join(sorted(c.decode("ascii") for c in brute_force_uniform(n)))
            assert hashlib.sha256(text.encode("ascii")).hexdigest() == want, n

    def test_n9_census_checked_by_networkx(self):
        nx = pytest.importorskip("networkx")
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        reps = oracle_graphs(9)
        assert len(reps) == 49
        certs = "\n".join(format_graph6(g) for g in reps)
        assert hashlib.sha256(certs.encode("ascii")).hexdigest() == (
            "31a7ffea5b54579531790f602c22690820861efcb2f1aae0808ffa8062e0bff4")
        for g in reps:
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert nx.node_connectivity(h) == 4, g
            for u, v in itertools.combinations(range(g.n), 2):
                if g.has_edge(u, v):
                    h.remove_edge(u, v)
                    kappa = 1 + local_node_connectivity(h, u, v)
                    h.add_edge(u, v)
                else:
                    kappa = local_node_connectivity(h, u, v)
                assert kappa == 4, (format_graph6(g), u, v)

    def test_counts_regression(self):
        # first-computation constants for the two upper orders
        assert len(brute_force_uniform(7)) == 4
        assert len(brute_force_uniform(8)) == 10

    def test_k44_and_cube_complement_are_found(self):
        certs8 = brute_force_uniform(8)
        assert canonical_cert(K44) in certs8
        cube = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4),
                         (0, 4), (1, 5), (2, 6), (3, 7)])
        cube_complement = Graph(8, [e for e in itertools.combinations(range(8), 2)
                                    if not cube.has_edge(*e)])
        assert canonical_cert(cube_complement) in certs8

    def test_oracle_graphs_are_uniform_and_sorted(self):
        for n in (5, 6, 7):
            reps = oracle_graphs(n)
            assert [canonical_cert(g) for g in reps] == sorted(brute_force_uniform(n))
            for g in reps:
                assert is_uniformly_4_connected(g)[0]

    def test_matches_raw_sweep_n6(self):
        raw = {canonical_cert(g) for g in reference.all_labeled_graphs(6)
               if g.min_degree() >= 4 and is_uniformly_4_connected(g)[0]}
        assert raw == brute_force_uniform(6)

    def test_matches_raw_sweep_n7(self):
        # unrestricted 2^21 sweep; validates the degree-order restriction
        # and all pruning in the production enumeration
        raw = set()
        slots = list(itertools.combinations(range(7), 2))
        masks = [(1 << u) | (1 << v) for u, v in slots]
        for bits in range(1 << 21):
            adj = [0] * 7
            m = bits
            while m:
                low = m & -m
                i = low.bit_length() - 1
                u, v = slots[i]
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                m ^= low
            if min(bin(a).count("1") for a in adj) < 4:
                continue
            g = Graph(7, [e for i, e in enumerate(slots) if bits >> i & 1])
            if is_uniformly_4_connected(g)[0]:
                raw.add(canonical_cert(g))
        assert raw == brute_force_uniform(7)

    def test_matches_census_without_pruning(self):
        # the max-degree rule and the forest test only drop children, so the
        # census keeps every class, with the same canonical representative
        for n in range(5, 9):
            assert construct._oracle(n) == reference.census_without_pruning(n), n

    @staticmethod
    def _count_searches(monkeypatch, n):
        """(labeled children, search nodes) of census(n)."""
        labeled, nodes = [], []
        search, descend = construct._canonical_search, graph_core._CanonSearch._descend
        monkeypatch.setattr(construct, "_canonical_search", lambda g: labeled.append(g) or search(g))
        monkeypatch.setattr(graph_core._CanonSearch, "_descend",
                            lambda s, *args: nodes.append(s) or descend(s, *args))
        brute_force_uniform(n)
        return len(labeled), len(nodes)

    def test_census_labels_only_pruned_children(self, monkeypatch):
        # the children of census(8) that pass every mask check, one per orbit
        # of miss-sets under the parent's automorphisms, each labeled once:
        # 1,691 before the max-degree rule and the forest test; 385, in
        # 2,243 search nodes, before the orbits and first-path pruning; 242,
        # in 1,411, before the neighbourhood-edge tie break; and 202, in
        # 1,173, before the pair bound
        assert self._count_searches(monkeypatch, 8) == (172, 1059)

    def test_census9_labels_one_child_per_orbit(self, monkeypatch):
        # 3,765, in 14,526 search nodes, before the orbits and first-path
        # pruning; 2,527, in 9,836, before the neighbourhood-edge tie break;
        # and 1,908, in 7,501, before the pair bound
        assert self._count_searches(monkeypatch, 9) == (1131, 5384)

    @staticmethod
    def _levels(n):
        """The levels of census(n), on 1 to n vertices."""
        level = {Graph(1): []}
        yield level
        for _ in range(1, n):
            level = construct._grow(level, n - 5)
            yield level

    def test_carried_generators_generate_each_group(self, monkeypatch):
        # every class of every level of census(8), and every class that the
        # n = 8 closure keeps, with generators in its canonical form's
        # coordinates; the group is closed here, apart from graph_core._group
        classes = [item for level in self._levels(8) for item in level.items()]
        assert len(classes) == 1 + 2 + 4 + 11 + 23 + 51 + 61 + 12
        labeled, real = [], construct._labeled
        monkeypatch.setattr(construct, "_labeled", lambda g: labeled.append(real(g)) or labeled[-1])
        forms = set(generate_catalog(8).representatives.values())
        assert len(forms) == 14
        kept = [(form, gens) for form, gens in labeled if form in forms]
        assert {form for form, _ in kept} == forms
        for form, gens in classes + kept:
            group = {tuple(range(form.n))}
            frontier = list(group)
            while frontier:
                p = frontier.pop()
                for s in gens:
                    q = tuple(s[x] for x in p)
                    if q not in group:
                        group.add(q)
                        frontier.append(q)
            for p in gens:
                assert relabel(form, dict(enumerate(p))) == form
            assert len(group) == len(graph_core.automorphism_group(form)), format_graph6(form)

    def test_orbits_keep_every_child_class(self):
        # level by level, the children kept with the generators fall into
        # the same classes as those kept without them
        for n in range(5, 9):
            for level in itertools.islice(self._levels(n), n - 1):
                for parent, gens in level.items():
                    kept = {canonical_cert(c) for c in construct._children(parent, n - 5, gens)}
                    alone = {canonical_cert(c) for c in construct._children(parent, n - 5, [])}
                    assert kept == alone, (n, format_graph6(parent))

    def test_levels_match_growth_without_deletion(self):
        # the max-degree rule, the neighbourhood-edge tie break and the
        # orbits only drop children: each level keeps every class
        for n in range(5, 9):
            levels = [{canonical_cert(g) for g in level} for level in self._levels(n)]
            assert levels == reference.census_levels_without_deletion(n), n

    def test_degree5_forest(self):
        def rows(g):
            return [g.adj_mask(v) for v in range(g.n)]

        def union(g, h):
            return Graph(g.n + h.n, g.edges() + [(u + g.n, v + g.n) for u, v in h.edges()])

        for n in range(5, 10):
            for g in oracle_graphs(n):
                assert construct._degree5_forest(rows(g)), format_graph6(g)
        assert not construct._degree5_forest(rows(complete_graph(6)))
        assert not construct._degree5_forest(rows(complete_graph(7)))
        # the two degree-5 vertices share a single edge
        assert construct._degree5_forest(rows(octahedron_plus()))
        # no vertex of degree 5
        assert construct._degree5_forest(rows(octahedron()))
        # two components: two single edges, then a single edge and a K6
        assert construct._degree5_forest(rows(union(octahedron_plus(), octahedron_plus())))
        assert not construct._degree5_forest(rows(union(octahedron_plus(), complete_graph(6))))

    def test_oracle_never_touches_expansion_machinery(self, monkeypatch):
        def boom(*a, **k):
            raise AssertionError("oracle reached expansion machinery")

        for name in ("apply_delta1", "apply_delta2", "reduce_edge", "is_quasi_4_compatible"):
            monkeypatch.setattr(transform, name, boom)
        for name in ("exists_quasi_3cc_path", "classify_quasi_3cc",
                     "exists_e_plus_quasi_3cc_path", "exists_quasi_chord",
                     "find_quasi_3cc_path", "find_e_plus_quasi_3cc_path", "find_quasi_chord"):
            monkeypatch.setattr(chording, name, boom)
        assert brute_force_uniform(6) == {canonical_cert(octahedron())}


class TestGenerate:
    def test_n5(self):
        assert generate_all(5) == {canonical_cert(complete_graph(5))}

    def test_n6(self):
        assert generate_all(6) == {canonical_cert(complete_graph(5)),
                                   canonical_cert(octahedron())}

    def test_n7_matches_oracle(self):
        cat = generate_catalog(7)
        assert cat.certs_by_n[7] == brute_force_uniform(7)
        assert cat.complete and not cat.soundness_failures

    def test_every_generated_graph_is_uniform(self):
        cat = generate_catalog(7)
        for rep in cat.representatives.values():
            assert is_uniformly_4_connected(rep)[0]

    def test_deterministic(self):
        first = generate_catalog(7)
        second = generate_catalog(7)
        assert first.certs_by_n == second.certs_by_n

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            generate_all(4)
        with pytest.raises(GraphError):
            generate_all(11)

    def test_budget_exhaustion_flags_partial_result(self):
        # cold, and after a default run has filled the verdict cache: a
        # result depends only on (input, budget), not on what ran before
        budget = SearchBudget(max_paths=1)
        got = []
        try:
            for warm in (False, True):
                chording.clear_caches()
                if warm:
                    generate_catalog(6)
                cat = generate_catalog(6, budget)
                got.append((cat.complete, cat.budget_hits))
        finally:
            chording.clear_caches()
        assert got == [(False, 60), (False, 60)]

    def test_faulty_compatibility_is_reported_not_hidden(self, monkeypatch):
        # skip the compatibility gate entirely: the uniformity cross-check
        # must catch every unsound application and the report must say so
        monkeypatch.setattr(transform, "is_quasi_4_compatible",
                            lambda *a, **k: transform.CompatReport(True, None))
        monkeypatch.setattr(construct, "is_quasi_4_compatible",
                            lambda *a, **k: transform.CompatReport(True, None))
        rep = verify_theorem(6)
        assert rep.soundness_failures
        assert not rep.holds
        assert rep.generated_by_n[6] == rep.oracle_by_n[6]

    def test_hosts_are_not_rechecked(self, monkeypatch):
        # every host of generation, decomposition and replay is a base or an
        # already checked uniformly 4-connected graph, so none is checked for
        # 4-connectivity again, spec by spec
        calls = []
        original = transform.is_k_connected

        def counting(h, k):
            calls.append(h)
            return original(h, k)

        monkeypatch.setattr(transform, "is_k_connected", counting)
        cat = generate_catalog(7)
        assert cat.certs_by_n[7] == brute_force_uniform(7)
        g = oracle_graphs(7)[0]
        assert canonical_cert(replay(decompose(g))) == canonical_cert(g)
        assert calls == []

    @staticmethod
    def _count_labelings(monkeypatch, n):
        """(canonical searches, certificates by order) of a cold generate_catalog(n)."""
        calls = []
        real = graph_core._CanonSearch.run

        def counting(search):
            calls.append(search)
            return real(search)

        monkeypatch.setattr(graph_core._CanonSearch, "run", counting)
        cat = generate_catalog(n)
        return len(calls), {k: len(v) for k, v in cat.certs_by_n.items()}

    def test_each_output_is_labeled_once(self, monkeypatch):
        # one search per base and per distinct labeled output, which also
        # gives each class its automorphism group: 62 when every output was
        # labeled twice, 35 when each base was labeled too, 33 when each
        # host's group came from a second search
        assert self._count_labelings(monkeypatch, 8) == (29, {5: 1, 6: 1, 7: 4, 8: 8})

    def test_closure9_labels_each_class_once(self, monkeypatch):
        # 289 when each host's group came from a second search
        assert self._count_labelings(monkeypatch, 9) == (277, {5: 1, 6: 1, 7: 4, 8: 8, 9: 45})

    def test_local_connectivity_counts_before_it_flows(self, monkeypatch):
        # the edge, the common neighbours and the degree cap settle most
        # pairs of a cold n = 8 closure: 665 flows, against 1,799 when every
        # path was a flow; the certificates are those of the full flows
        calls = []
        original = connectivity._flow_paths

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(connectivity, "_flow_paths", counting)
        chording.clear_caches()
        try:
            cat = generate_catalog(8)
        finally:
            chording.clear_caches()
        text = "\n".join(sorted(c.decode("ascii") for c in cat.certs_by_n[8]))
        assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
            "e90b9a2a5be36e11a71871e1722b0ef1320d26def0dbbdfbfc36504c9848ffed")
        assert len(calls) <= 800

    def test_results_pinned_across_budgets(self, monkeypatch):
        # sha256 over the per-order certificates with their representatives'
        # graph6, completeness, budget hits and soundness failures of every
        # run below, computed when each spec was still checked on its own
        def doc(cat):
            return {"orders": {str(n): [[c.decode("ascii"), format_graph6(cat.representatives[c])]
                                        for c in sorted(certs)]
                               for n, certs in sorted(cat.certs_by_n.items())},
                    "complete": cat.complete, "budget_hits": cat.budget_hits,
                    "failures": [[c.decode("ascii"), s] for c, s in cat.soundness_failures]}

        runs = [doc(generate_catalog(n)) for n in (6, 7, 8)]
        for budget in (SearchBudget(max_paths=1), SearchBudget(max_paths=3),
                       SearchBudget(max_len=4)):
            runs += [doc(generate_catalog(n, budget)) for n in (6, 7)]
        assert [(r["complete"], r["budget_hits"]) for r in runs[3:]] == [(False, 60), (False, 864)] * 3
        monkeypatch.setattr(construct, "is_quasi_4_compatible",
                            lambda *a, **k: transform.CompatReport(True, None))
        runs += [doc(generate_catalog(n))["failures"] for n in (6, 7)]
        assert [len(r) for r in runs[-2:]] == [60, 570]
        assert hashlib.sha256(json.dumps(runs).encode("ascii")).hexdigest() == (
            "cf9d1503df9eab6711a7faed4b312d5716339135b26e824340daf91deaa2650a")

    def test_each_spec_orbit_is_checked_once(self, monkeypatch):
        checked = []
        real = construct.is_quasi_4_compatible

        def counting(h, spec, budget):
            checked.append((h, spec))
            return real(h, spec, budget)

        monkeypatch.setattr(construct, "is_quasi_4_compatible", counting)
        cat = generate_catalog(8)
        assert cat.complete and not cat.soundness_failures
        # the 8,703 specs of the six hosts fall into 333 orbits under the
        # hosts' automorphism groups; 3,921 specs pass their clauses
        assert len(checked) <= 333
        orbits = {(h, frozenset(reference.spec_image(spec, p) for p in graph_core.automorphism_group(h)))
                  for h, spec in checked}
        assert len(orbits) == len(checked)

    def test_only_orbit_representatives_become_spec_objects(self, monkeypatch):
        # one spec object per orbit of the 8,703 specs of a cold n = 8 closure
        built = []
        for name in ("Delta1Spec", "Delta2Spec"):
            def counting(*args, cls=getattr(construct, name)):
                spec = cls(*args)
                built.append(spec)
                return spec

            monkeypatch.setattr(construct, name, counting)
        cat = generate_catalog(8)
        assert cat.complete and not cat.soundness_failures
        assert len(built) == 333

    def test_spec_keys_match_the_reference_orbits(self):
        # on every host of the n = 8 closure, three n = 8 hosts of closure(9),
        # C9^2 (a host of closure(10)) and three fixed hosts: each enumerated
        # spec of its canonical form has its own key, and imaging keys through
        # the vertex-bit tables of the group that the form's generators
        # (construct._labeled) generate gives the orbits that imaging spec
        # objects by every automorphism does
        cat = generate_catalog(8)
        hosts = [cat.representatives[c] for n in (5, 6, 7, 8)
                 for c in sorted(cat.certs_by_n[n])[:None if n < 8 else 3]]
        hosts += [square_of_cycle(9), complete_graph(5), octahedron(), octahedron_plus()]
        for h in hosts:
            h, gens = construct._labeled(h)
            keyed = list(construct._keyed_specs(h))
            specs = [construct._spec(raw) for _, raw in keyed]
            by_key = {key: i for i, (key, _) in enumerate(keyed)}
            by_spec = {spec: i for i, spec in enumerate(specs)}
            assert len(by_key) == len(by_spec) == len(specs)
            tables = [tuple(1 << v for v in p) for p in graph_core._group(gens, h.n)]
            perms = graph_core.automorphism_group(h)
            key_orbits, spec_orbits = set(), set()
            key_seen, spec_seen = set(), set()
            for i, (_, raw) in enumerate(keyed):
                if i not in key_seen:
                    images = {construct._key_image(raw, vbit) for vbit in tables}
                    assert images <= by_key.keys(), images - by_key.keys()
                    orbit = frozenset(by_key[key] for key in images)
                    key_orbits.add(orbit)
                    key_seen |= orbit
                if i not in spec_seen:
                    orbit = frozenset(by_spec[reference.spec_image(specs[i], p)] for p in perms)
                    spec_orbits.add(orbit)
                    spec_seen |= orbit
            assert key_orbits == spec_orbits, format_graph6(h)

    def test_truncating_budget_checks_every_spec(self, monkeypatch):
        # a truncated sweep keeps the first paths in label order, which an
        # automorphism does not preserve, so no outcome is reused
        passed, checked = [], []
        real_clauses, real_compat = construct._clauses, construct.is_quasi_4_compatible

        def clauses(h, spec):
            reduced = real_clauses(h, spec)
            passed.append(spec)
            return reduced

        def compat(h, spec, budget):
            checked.append(spec)
            return real_compat(h, spec, budget)

        monkeypatch.setattr(construct, "_clauses", clauses)
        monkeypatch.setattr(construct, "is_quasi_4_compatible", compat)
        cat = generate_catalog(6, SearchBudget(max_paths=1))
        assert (cat.complete, cat.budget_hits) == (False, 60)
        assert checked == passed and len(passed) > 3  # K5's delta-1 specs form 3 orbits

    def test_n9_closure_misses_four_census_classes(self):
        cat = generate_catalog(9)
        assert cat.complete and not cat.soundness_failures
        assert len(cat.certs_by_n[9]) == 45
        census = brute_force_uniform(9)
        assert cat.certs_by_n[9] <= census
        assert sorted(c.decode("ascii") for c in census - cat.certs_by_n[9]) == [
            "H@UfMr{", "H@^EnIw", "HBYmdZR", "HBjBc^{"]


class TestDecompose:
    def test_failed_rebuild_raises(self, monkeypatch):
        # an explicit RuntimeError, not a DecompositionError that the
        # candidate search would swallow, and not an assert lost under -O
        monkeypatch.setattr(construct, "_iso_from", lambda g, h, g_order, h_order: None)
        with pytest.raises(RuntimeError):
            decompose(square_of_cycle(7))

    def test_bases_give_empty_traces(self):
        for tag, g in (("C5SQ", square_of_cycle(5)), ("C6SQ", square_of_cycle(6))):
            trace = decompose(g)
            assert trace.base == tag and trace.steps == ()
            assert replay(trace) == base_graph(tag)

    def test_relabeled_base(self):
        g = relabel(octahedron(), {0: 5, 1: 3, 2: 1, 3: 0, 4: 2, 5: 4})
        trace = decompose(g)
        assert trace.base == "C6SQ" and not trace.steps

    def test_non_uniform_rejected(self):
        with pytest.raises(NotUniform):
            decompose(complete_graph(6))

    @pytest.mark.parametrize("n", [4, 2, 1])
    def test_graph_below_five_vertices_is_not_uniform(self, n):
        with pytest.raises(NotUniform):
            decompose(complete_graph(n))

    def test_oracle_n7_round_trips(self):
        for g in oracle_graphs(7):
            trace = decompose(g)
            rebuilt = replay(trace)
            assert are_isomorphic(rebuilt, g)
            assert trace.steps[-1].post_cert == canonical_cert(g)

    def test_deterministic(self):
        g = oracle_graphs(7)[0]
        assert decompose(g) == decompose(g)

    def test_full_restoration_steps_invert_by_reduction(self):
        # when a step's removal sets are the full missing triangle sets,
        # reducing the edge at the new vertex recovers the host exactly;
        # partial-restoration steps lose that information by design (the
        # reduction always completes the whole triangle)
        from unicon4 import reduce_edge

        def triangle_complete(h, xs):
            return all(h.has_edge(a, b) for a, b in itertools.combinations(xs, 2))

        checked = 0
        for g in oracle_graphs(7) + oracle_graphs(8):
            try:
                trace = decompose(g)
            except construct.DecompositionError:
                continue  # the two characterization counterexamples
            host = base_graph(trace.base)
            for step in trace.steps:
                out = transform.apply_delta(host, step.spec)
                if step.op == "delta1":
                    new_edge = (step.spec.y_vertex, host.n)
                    full = triangle_complete(host, step.spec.x_set)
                else:
                    new_edge = (host.n, host.n + 1)
                    full = (triangle_complete(host, step.spec.x_set)
                            and triangle_complete(host, step.spec.y_set))
                if full:
                    checked += 1
                    reduced, _ = reduce_edge(out, new_edge)
                    assert are_isomorphic(reduced, host)
                host = out
        assert checked

    def test_k44_has_no_uniform_parent(self):
        # 4-regular, so no single-vertex expansion applies, and none of the
        # exhaustively-enumerated two-vertex parents is uniformly
        # 4-connected: the characterization misses this graph
        assert is_uniformly_4_connected(K44)[0]
        for op, host, spec in construct._parent_candidates(K44):
            assert not is_uniformly_4_connected(host)[0]
        with pytest.raises(construct.DecompositionError):
            decompose(K44)

    def test_search_budget(self, monkeypatch):
        # K44's search would exhaust 784 candidates; a small cap trips first
        monkeypatch.setattr(construct, "DECOMPOSE_CANDIDATES", 10)
        with pytest.raises(chording.BudgetExceeded, match="examined 11 candidates"):
            decompose(K44)

    def test_hosts_below_degree_4_skip_the_uniformity_check(self, monkeypatch):
        # such a host cannot be uniformly 4-connected, and the check would
        # build a cut witness that the search never reads
        degrees = []
        check = construct.is_uniformly_4_connected

        def recorded(h):
            degrees.append(h.min_degree())
            return check(h)

        monkeypatch.setattr(construct, "is_uniformly_4_connected", recorded)
        with pytest.raises(construct.DecompositionError):
            decompose(K44)
        assert degrees and min(degrees) == 4

    def test_screened_hosts_still_count_against_the_budget(self, monkeypatch):
        monkeypatch.setattr(construct, "DECOMPOSE_CANDIDATES", 784)
        with pytest.raises(construct.DecompositionError):
            decompose(K44)
        monkeypatch.setattr(construct, "DECOMPOSE_CANDIDATES", 783)
        with pytest.raises(chording.BudgetExceeded, match="examined 784 candidates"):
            decompose(K44)

    # sha256 of trace_to_json(decompose(C_n^2)); screening hosts by degree
    # must leave every trace as it is
    SQUARE_TRACES = {
        9: "f0fba287574dab043d22831f8c0c67d723288a68d34c68a176a232eabe6ef918",
        10: "0b63a83fda92e4d4219828742b0d1a73076f8b3838bafd2b04f27cc561738858",
        11: "04c416e6dfbc7f940a5b55abc08c0bbb967d9e82edc44d14e246977d266ec156",
        12: "65d3bc9bb2a69135eb0b0333334c1c02edcc5a736399d892c43b2ec67729f3d4",
        13: "544b7eb8542d897ae5c6756f5afff39732cfb39d3581ee934e745b90855bbd74",
        14: "d2f492c23849eaa63231c90ce2650fd6564129ed81f92e45fd80794c9f5eee57",
        15: "886476ad0f3ace1896771c300e00a5c9637622ffc0874b210d38e2f0bf8b827c",
        16: "1e790fe8e1de07b3d75fb12e34cb22420ce294355be78f99863845b17ae118e7",
    }

    def test_square_traces_are_pinned(self):
        got = {n: hashlib.sha256(trace_to_json(decompose(square_of_cycle(n))).encode("ascii"))
               .hexdigest() for n in self.SQUARE_TRACES}
        assert got == self.SQUARE_TRACES

    def test_screen_passes_every_census_class(self):
        def rows(g):
            return [g.adj_mask(v) for v in range(g.n)]

        for n in range(5, 10):
            for g in oracle_graphs(n):
                assert construct._meets_uniform_bounds(rows(g)), format_graph6(g)
        assert construct._meets_uniform_bounds(rows(K44))
        # one bound broken at a time: a vertex of degree 3; an adjacent
        # pair with 4 common neighbors; the triangle 0, 3, 4 of degree >= 5
        # vertices, every pair within its common-neighbor bound
        assert not construct._meets_uniform_bounds(rows(graph_core.remove_edges(square_of_cycle(8),
                                                                                [(0, 1)])))
        assert construct._degree5_forest(rows(octahedron_plus()))
        assert not construct._meets_uniform_bounds(rows(octahedron_plus()))
        c8sq_plus = graph_core.add_edges(square_of_cycle(8), [(0, 3), (0, 4)])
        assert not construct._degree5_forest(rows(c8sq_plus))
        assert not construct._meets_uniform_bounds(rows(c8sq_plus))
        # 4-connected, its only degree-5 vertices 1 and 4 adjacent with 3
        # common neighbors, yet with five internally disjoint paths
        fm = graph_core.parse_graph6("Fm}jg")
        assert construct._degree5_forest(rows(fm))
        assert (fm.adj_mask(1) & fm.adj_mask(4)).bit_count() == 3
        assert connectivity.local_connectivity(fm, 1, 4) == 5
        assert not construct._meets_uniform_bounds(rows(fm))

    def test_screened_hosts_are_not_uniform(self, monkeypatch):
        # networkx shares no code with the screen: each sampled host it
        # rejects while decomposing census(9) has a pair whose local
        # connectivity is not 4
        nx = pytest.importorskip("networkx")
        local_node_connectivity = nx.algorithms.connectivity.local_node_connectivity
        rejected = []
        screen = construct._meets_uniform_bounds

        def recorded(rows):
            ok = screen(rows)
            if not ok:
                rejected.append(Graph._of(rows))
            return ok

        monkeypatch.setattr(construct, "_meets_uniform_bounds", recorded)
        for g in oracle_graphs(9):
            try:
                decompose(g)
            except construct.DecompositionError:
                pass
        assert len(rejected) > 50

        def kappa(h, u, v):
            if not h.has_edge(u, v):
                return local_node_connectivity(h, u, v)
            h.remove_edge(u, v)
            k = 1 + local_node_connectivity(h, u, v)
            h.add_edge(u, v)
            return k

        for g in random.Random(9).sample(rejected, 50):
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            assert any(kappa(h, u, v) != 4 for u, v in itertools.combinations(range(g.n), 2)), g

    def test_each_class_is_searched_once(self, monkeypatch):
        # I@L{UFPw_ has no decomposition; its search re-entered the cube
        # complement GJem^_ 11 times when a failed class was searched again
        searched = []
        candidates = construct._parent_candidates

        def recorded(g):
            searched.append(canonical_cert(g))
            return candidates(g)

        monkeypatch.setattr(construct, "_parent_candidates", recorded)
        with pytest.raises(construct.DecompositionError):
            decompose(graph_core.parse_graph6("I@L{UFPw_"))
        assert len(searched) == len(set(searched))
        assert canonical_cert(graph_core.parse_graph6("GJem^_")) in searched

    def test_only_screened_hosts_are_checked_for_uniformity(self, monkeypatch):
        # the input gets exactly one public check, every later one is on a
        # host that meets the bounds
        checked = []
        check = construct.is_uniformly_4_connected

        def recorded(h):
            checked.append(h)
            return check(h)

        monkeypatch.setattr(construct, "is_uniformly_4_connected", recorded)
        hosts = 0
        for g in (square_of_cycle(12), K44, graph_core.parse_graph6("I@L{UFPw_")):
            checked.clear()
            try:
                decompose(g)
            except construct.DecompositionError:
                pass
            assert checked[0] is g
            assert all(h.n < g.n and construct._meets_uniform_bounds(
                [h.adj_mask(v) for v in range(h.n)]) for h in checked[1:])
            hosts += len(checked) - 1
        assert hosts > 0
        checked.clear()
        with pytest.raises(NotUniform):
            decompose(complete_graph(6))
        assert len(checked) == 1

    def test_base_table_matches_the_labeling(self):
        assert tuple(construct._BASES) == construct.BASE_TAGS
        for tag, (cert, order) in construct._BASES.items():
            assert cert == canonical_cert(base_graph(tag))
            assert order == graph_core.canonical_labeling(base_graph(tag))

    def test_decompose_outcomes_pinned(self):
        # sha256 over each graph's trace, or the name of the error it
        # raises, for every class of census(8) and census(9) plus one n = 10
        # graph that re-enters the cube complement GJem^_: 53 traces and 7
        # DecompositionErrors; pruning the search must leave all of them
        digest = hashlib.sha256()
        outcomes = []
        for g in oracle_graphs(8) + oracle_graphs(9) + (graph_core.parse_graph6("I@L{UFPw_"),):
            try:
                text = trace_to_json(decompose(g))
            except construct.DecompositionError as exc:
                text = type(exc).__name__
            outcomes.append(text)
            digest.update(text.encode("ascii") + b"\n")
        assert outcomes.count("DecompositionError") == 7 and len(outcomes) == 60
        assert digest.hexdigest() == "d5f327e647273fcb20ad8b67df85421427d22f586b31c5b32fba077dc74b965f"

    def test_every_parent_candidate_meets_the_clauses(self):
        # the lemma in _parent_candidates that lets decompose skip the
        # clauses: on a 4-connected graph none of them fails, end coverage
        # included (the 796 candidates whose reduced host has a 2-cut)
        kappas = collections.Counter()
        for n in range(5, 9):
            for g in oracle_graphs(n):
                for op, host, spec in construct._parent_candidates(g):
                    kappas[op, connectivity._kappa(transform._clauses(host, spec), 3)] += 1
        assert kappas == {("delta1", 3): 230, ("delta2", 3): 884, ("delta2", 2): 796}
        c9sq_chord = graph_core.add_edges(square_of_cycle(9), [(0, 3)])
        for g in (graph_core.k6_minus_edge(), octahedron_plus(), c9sq_chord):
            assert connectivity.is_k_connected(g, 4)
            for _, host, spec in construct._parent_candidates(g):
                transform._clauses(host, spec)


class TestTraces:
    def test_json_round_trip(self):
        # a step of each kind, its JSON keys its spec's fields; the delta-1
        # step is not replayed, so it need not build anything
        trace = decompose(oracle_graphs(7)[2])
        step1 = construct.TraceStep("delta1", transform.Delta1Spec((0, 1, 2), 3, [(0, 1)]), b"D~{")
        trace = trace._replace(steps=trace.steps + (step1,))
        for step, d in zip(trace.steps, json.loads(trace_to_json(trace))["steps"]):
            assert set(d) == {"op", "post_cert", *step.spec._fields}
        assert trace_from_json(trace_to_json(trace)) == trace

    def test_empty_c5sq_trace_replays_to_k5(self):
        trace = trace_from_json(json.dumps(
            {"schema": "unicon4.trace/v1", "base": "C5SQ", "steps": []}))
        assert replay(trace) == complete_graph(5)

    def test_tampered_edge_detected(self):
        trace = decompose(oracle_graphs(7)[0])
        doc = json.loads(trace_to_json(trace))
        doc["steps"][0]["ex_edges"] = [[0, 1]]
        with pytest.raises((StepInvalid, CertMismatch)):
            replay(trace_from_json(json.dumps(doc)))

    def test_tampered_cert_detected(self):
        trace = decompose(oracle_graphs(7)[0])
        doc = json.loads(trace_to_json(trace))
        doc["steps"][-1]["post_cert"] = format_graph6(complete_graph(7))
        with pytest.raises(CertMismatch):
            replay(trace_from_json(json.dumps(doc)))

    def test_malformed_documents(self):
        good = trace_to_json(decompose(oracle_graphs(7)[0]))
        for breaker in (
                lambda d: d.update(schema="nope"),
                lambda d: d.update(base="C9SQ"),
                lambda d: d["steps"][0].update(op="delta9"),
                lambda d: d["steps"][0].pop("x_set"),
                # mistyped fields: each once crashed replay or named another vertex
                lambda d: d.update(steps=5),
                lambda d: d["steps"][0].update(post_cert=5),
                lambda d: d["steps"][0].update(x_set="012"),
                lambda d: d["steps"][0].update(x_set=[0.0, 1, 2]),
                lambda d: d["steps"][0].update(op="delta1", y_vertex=3.7),
                lambda d: d["steps"][0].update(op="delta1", y_vertex=True),
                lambda d: d["steps"][0].update(ex_edges=[[2, 3.0]]),
                # removed edges that are not pairs
                lambda d: d["steps"][0].update(ex_edges=[[0, 1, 2]]),
                lambda d: d["steps"][0].update(ex_edges=[[0]]),
                lambda d: d["steps"][0].update(ex_edges=[0]),
                lambda d: d["steps"][0].update(ex_edges=5),
                lambda d: d["steps"][0].update(ey_edges=[[0, 1, 4]]),
                lambda d: d["steps"][0].update(op="delta1", y_vertex=5, ex_edges=[[2, 3, 4]]),
                # 3-sets that are not collections
                lambda d: d["steps"][0].update(x_set=5),
                lambda d: d["steps"][0].update(x_set=None),
                lambda d: d["steps"][0].update(op="delta2", y_set=7, ey_edges=[]),
        ):
            doc = json.loads(good)
            breaker(doc)
            with pytest.raises(TraceFormatError):
                trace_from_json(json.dumps(doc))
        with pytest.raises(TraceFormatError):
            trace_from_json("not json at all {")

    def test_replay_refuses_incompatible_step(self):
        # structurally valid but incompatible; its output is accordingly
        # not uniform, so both validation layers refuse it, each by name
        h = complete_graph(5)
        bad = transform.Delta2Spec((0, 1, 2), (0, 1, 3), [(0, 1)], [(0, 3)])
        transform.validate_delta2(h, bad)
        out = transform.apply_delta2(h, bad)
        trace = construct.ConstructionTrace(
            "C5SQ", (construct.TraceStep("delta2", bad, canonical_cert(out)),))
        with pytest.raises(StepInvalid) as err:
            replay(trace)
        assert "compatible" in err.value.cause
        with pytest.raises(StepInvalid) as err:
            replay(trace, check_compat=False)
        assert "uniformly" in err.value.cause

    def test_replay_refuses_a_step_whose_op_names_the_other_kind(self):
        # refused before the spec is applied, so the certificate is never read
        spec = transform.Delta1Spec((0, 1, 2), 3, [(0, 1)])
        trace = construct.ConstructionTrace("C5SQ", (construct.TraceStep("delta2", spec, b""),))
        with pytest.raises(StepInvalid) as err:
            replay(trace)
        assert (err.value.index, err.value.cause) == (0, "op delta2 does not match spec kind")


    @pytest.mark.parametrize("op", ["delta9", ["delta2"]])
    def test_replay_refuses_a_step_whose_op_names_no_expansion(self, op):
        # a Delta2Spec step under an unknown op was once replayed, and the
        # trace it came from then written out, but not read back
        trace = decompose(square_of_cycle(8))
        assert [s.op for s in trace.steps] == ["delta2"]
        bad = trace._replace(steps=(trace.steps[0]._replace(op=op),))
        with pytest.raises(StepInvalid) as err:
            replay(bad)
        assert (err.value.index, err.value.cause) == (0, f"unknown op {op!r}")
        doc = json.loads(trace_to_json(trace))
        doc["steps"][0]["op"] = op
        with pytest.raises(TraceFormatError, match=f"^{re.escape(f'step 0: unknown op {op!r}')}$"):
            trace_from_json(json.dumps(doc))


class TestVerifyTheorem:
    def test_holds_through_n7(self):
        rep = verify_theorem(7)
        assert rep.holds and rep.complete
        assert {n: len(c) for n, c in rep.oracle_by_n.items()} == {5: 1, 6: 1, 7: 4}
        assert rep.generated_by_n == rep.oracle_by_n
        assert all(rep.decompose_ok.values()) and len(rep.decompose_ok) == 6

    def test_out_of_range(self):
        with pytest.raises(GraphError):
            verify_theorem(9)
