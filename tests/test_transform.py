import collections
import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from unicon4 import (ConnectivityTooLow, Delta1Spec, Delta2Spec, EndCoverageViolated, Graph,
                     GraphError, SpecInvalid, apply_delta1, apply_delta2, complete_graph,
                     cycle_graph, is_k_connected, is_quasi_4_compatible, is_removable,
                     is_removable_structural, is_uniformly_4_connected, k6_minus_edge,
                     octahedron, octahedron_plus, reduce_edge, removable_edges, remove_edges,
                     square_of_cycle, validate_delta1, validate_delta2, vertex_connectivity,
                     verify_witness)
from unicon4 import add_edges, apply_delta, chording, format_graph6, transform
from unicon4.construct import _keyed_specs, _spec, generate_catalog
from unicon4.transform import _clauses, _separated

import reference


def nonempty_subsets(items):
    for r in range(1, len(items) + 1):
        yield from itertools.combinations(items, r)


def delta1_specs(h):
    for xs in itertools.combinations(range(h.n), 3):
        inside = [e for e in itertools.combinations(xs, 2) if h.has_edge(*e)]
        if not inside:
            continue
        for exs in nonempty_subsets(inside):
            for y in range(h.n):
                if y not in xs:
                    yield Delta1Spec(xs, y, exs)


def delta2_specs(h):
    combos = []
    for xs in itertools.combinations(range(h.n), 3):
        inside = [e for e in itertools.combinations(xs, 2) if h.has_edge(*e)]
        if inside:
            combos.append((xs, list(nonempty_subsets(inside))))
    for i in range(len(combos)):
        for j in range(i + 1, len(combos)):
            xs, xsubs = combos[i]
            ys, ysubs = combos[j]
            if len(set(xs) & set(ys)) > 2:
                continue
            for exs in xsubs:
                for eys in ysubs:
                    yield Delta2Spec(xs, ys, exs, eys)


def random_4connected(rng, n):
    while True:
        g = reference.random_graph(rng, n, rng.choice([0.6, 0.7, 0.8]))
        if is_k_connected(g, 4):
            return g


class TestReduceEdge:
    def test_k6_keeps_both_endpoints(self):
        h, idmap = reduce_edge(complete_graph(6), (0, 1))
        assert h == k6_minus_edge() and len(idmap) == 6

    def test_k5_collapses_to_triangle(self):
        h, idmap = reduce_edge(complete_graph(5), (0, 1))
        assert h == complete_graph(3)
        assert sorted(idmap) == [2, 3, 4]

    def test_octahedron_gives_k4(self):
        h, idmap = reduce_edge(octahedron(), (0, 1))
        assert h == complete_graph(4) and sorted(idmap) == [2, 3, 4, 5]

    @pytest.mark.parametrize("g, e", [(octahedron(), (0, 3)), (square_of_cycle(8), (-1, 1)),
                                      (square_of_cycle(8), (7, 9)), (square_of_cycle(8), (0, 0))],
                             ids=["octahedron-0-3", "c8sq--1-1", "c8sq-7-9", "c8sq-0-0"])
    def test_absent_edge(self, g, e):
        # one edge check serves the reduction and both removability forms
        for query in (reduce_edge, is_removable, is_removable_structural):
            with pytest.raises(GraphError):
                query(g, e)

    def test_requires_4_connected(self):
        with pytest.raises(GraphError):
            reduce_edge(cycle_graph(6), (0, 1))

    def test_endpoint_order_irrelevant(self):
        # mirror of the reduction processing the higher-id endpoint first
        def reduce_high_first(g, e):
            x, y = max(e), min(e)
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
            remap = {o: n for n, o in enumerate(keep)}
            return Graph(len(keep), {(remap[a], remap[b])
                                     for a in keep for b in nbrs[a] if a < b})

        rng = random.Random(5)
        corpus = [complete_graph(5), complete_graph(6), octahedron(), octahedron_plus(),
                  square_of_cycle(7), square_of_cycle(8)]
        corpus += [random_4connected(rng, rng.randint(6, 8)) for _ in range(10)]
        for g in corpus:
            for e in g.edges():
                assert reduce_edge(g, e)[0] == reduce_high_first(g, e)


class TestRemovability:
    def test_bases_have_none(self):
        assert removable_edges(square_of_cycle(5)) == []
        assert removable_edges(square_of_cycle(6)) == []

    def test_k6_k7_all_removable(self):
        assert len(removable_edges(complete_graph(6))) == 15
        assert len(removable_edges(complete_graph(7))) == 21

    def test_structural_needs_order_7(self):
        with pytest.raises(GraphError):
            is_removable_structural(complete_graph(6), (0, 1))

    def test_structural_k7(self):
        assert all(is_removable_structural(complete_graph(7), e)
                   for e in complete_graph(7).edges())

    def test_direct_equals_structural_c7sq(self):
        g = square_of_cycle(7)
        for e in g.edges():
            assert is_removable(g, e) == is_removable_structural(g, e)

    def test_edgeless_graph_refused(self):
        # like is_removable, reduce_edge and the CLI: a graph that is not
        # 4-connected is refused, not answered with an empty list
        for g in (Graph(0), Graph(1), Graph(3), Graph(6)):
            with pytest.raises(GraphError, match="reduction is defined on 4-connected graphs"):
                removable_edges(g)

    def test_direct_matches_the_reduction_and_networkx(self):
        # a reference that shares no code with the capped counts: the
        # reduction on neighbour sets, then networkx's global connectivity
        nx = pytest.importorskip("networkx")
        rng = random.Random(31)
        graphs = [complete_graph(5), complete_graph(6), octahedron(), octahedron_plus()]
        graphs += [square_of_cycle(n) for n in range(7, 17)] + _separated_cases("pool")
        for _ in range(8):
            n = rng.randint(7, 12)
            chords = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3))]
            graphs.append(reference.random_permuted(rng, add_edges(square_of_cycle(n), chords)))
            graphs.append(random_4connected(rng, n))
        branches = collections.Counter()
        for g in graphs:
            got = removable_edges(g)
            for x, y in g.edges():
                h, _ = reference.reduce_by_sets(g, x, y)
                hx = nx.Graph(h.edges())
                hx.add_nodes_from(range(h.n))
                want = h.n >= 5 and nx.node_connectivity(hx) >= 4
                assert ((x, y) in got) == want, (format_graph6(g), x, y)
                deleted = (g.degree(x) == 4) + (g.degree(y) == 4)
                branches[("both kept", "one kept", "both deleted")[deleted]] += 1
                branches["common neighbour"] += deleted == 2 and any(
                    g.has_edge(y, c) for c in g.neighbors(x))
                branches["h.n < 5"] += h.n < 5
        assert all(branches[b] for b in ("both kept", "one kept", "both deleted",
                                         "common neighbour", "h.n < 5")), branches

    def test_direct_equals_structural_random(self):
        rng = random.Random(15)
        for _ in range(12):
            g = random_4connected(rng, rng.choice([7, 8]))
            for e in g.edges():
                assert is_removable(g, e) == is_removable_structural(g, e)


# the benchmark's pool of uniformly 4-connected graphs, n = 9..16
POOL = json.loads((Path(__file__).resolve().parent.parent / "bench" / "pins.json")
                  .read_text(encoding="utf-8"))["pool"]


def _separated_cases(name):
    if name == "squares":
        return [square_of_cycle(n) for n in range(7, 17)]
    if name == "pool":
        return [Graph(int(n), [tuple(e) for e in entry["edges"]])
                for n, entries in sorted(POOL.items()) for entry in entries]
    rng = random.Random(12)
    return [random_4connected(rng, n) for n in range(7, 13) for _ in range(2)]


class TestSeparated:
    """_separated counts x-y paths in g - xy once and, when there are only
    3, counts again across each contraction of a private neighbour of x
    into x and of y into y; the exhaustive sweep over all 3-sets checks it."""

    @pytest.mark.parametrize("family", ["squares", "pool", "random"])
    def test_matches_the_exhaustive_sweep(self, family, monkeypatch):
        # the first count of each edge runs on g's own rows, every later
        # one on a contraction, which masks out the two merged vertices
        counts = collections.Counter()
        count = transform._local_conn

        def counted(adj, u, v, cap, alive, direct):
            k = count(adj, u, v, cap, alive, direct)
            counts["contracted" if alive != (1 << len(adj)) - 1 else f"whole-{k}"] += 1
            return k

        monkeypatch.setattr(transform, "_local_conn", counted)
        answers = collections.Counter()
        for g in _separated_cases(family):
            for x, y in g.edges():
                got = _separated(g, x, y)
                assert got == reference.separated_by_3set(g, x, y), (format_graph6(g), x, y)
                answers[got] += 1
        assert answers[True] and answers[False]
        assert set(counts) <= {"whole-3", "whole-4", "contracted"}
        assert counts["whole-3"] and counts["contracted"]
        if family == "random":
            assert counts["whole-4"]  # the early exit: no 3-set cuts 4 disjoint paths

    def test_four_paths_skip_the_component_search(self, monkeypatch):
        calls = []
        count = transform._local_conn

        def counted(*args):
            calls.append(args)
            return count(*args)

        monkeypatch.setattr(transform, "_local_conn", counted)
        assert not _separated(complete_graph(7), 0, 1)
        assert len(calls) == 1  # no contraction is counted


class TestDelta1:
    def test_structural_postconditions(self):
        h = octahedron()
        g = apply_delta1(h, Delta1Spec((0, 1, 2), 4, [(0, 2)]))
        assert g.n == 7
        assert g.degree(6) == 4
        assert sorted(g.neighbors(6)) == [0, 1, 2, 4]
        assert g.edge_count == h.edge_count - 1 + 4
        assert not g.has_edge(0, 2)

    def test_validate_passes_iff_reduced_3_connected(self):
        h = octahedron()
        spec = Delta1Spec((0, 1, 2), 4, [(0, 2)])
        assert vertex_connectivity(remove_edges(h, [(0, 2)])) >= 3
        validate_delta1(h, spec)  # must not raise

    def test_empty_removal_set(self):
        with pytest.raises(SpecInvalid) as err:
            validate_delta1(octahedron(), Delta1Spec((0, 1, 2), 4, []))
        assert err.value.clause == "ex-nonempty"

    def test_edge_outside_triple(self):
        with pytest.raises(SpecInvalid):
            validate_delta1(octahedron(), Delta1Spec((0, 1, 2), 4, [(0, 4)]))

    def test_y_inside_x(self):
        with pytest.raises(SpecInvalid):
            validate_delta1(octahedron(), Delta1Spec((0, 1, 2), 2, [(0, 2)]))

    def test_no_edges_inside_triple(self):
        with pytest.raises(SpecInvalid) as err:
            validate_delta1(octahedron_plus(), Delta1Spec((1, 4, 3), 0, [(1, 4)]))
        assert err.value.clause in ("ex-induced-nonempty", "ex-subset")

    def test_connectivity_side_condition(self):
        # removing the whole triangle inside a K5 3-set drops the remainder
        # to connectivity 2
        h = complete_graph(5)
        spec = Delta1Spec((0, 1, 2), 4, [(0, 1), (0, 2), (1, 2)])
        assert vertex_connectivity(remove_edges(h, spec.ex_edges)) == 2
        with pytest.raises(ConnectivityTooLow):
            validate_delta1(h, spec)

    def test_host_must_be_4_connected(self):
        with pytest.raises(SpecInvalid) as err:
            validate_delta1(cycle_graph(8), Delta1Spec((0, 1, 2), 4, [(0, 1)]))
        assert err.value.clause == "host-4-connected"

    @pytest.mark.parametrize("spec, clause", [
        (Delta1Spec((0, 0, 1), 4, [(0, 1)]), "x_set-three-distinct"),
        (Delta1Spec((0, 1, 9), 4, [(0, 1)]), "x_set-in-host"),
        (Delta1Spec((0, 3, 6), 1, [(0, 3)]), "ex-induced-nonempty"),  # an independent 3-set
    ])
    def test_shape_clauses_are_named(self, spec, clause):
        with pytest.raises(SpecInvalid) as err:
            validate_delta1(square_of_cycle(9), spec)
        assert err.value.clause == clause


class TestDelta2:
    def test_structural_postconditions(self):
        h = octahedron()
        g = apply_delta2(h, Delta2Spec((0, 1, 2), (3, 4, 5), [(0, 2)], [(3, 5)]))
        assert g.n == 8
        assert g.degree(6) == 4 and g.degree(7) == 4
        assert g.has_edge(6, 7)
        assert sorted(g.neighbors(6)) == [0, 1, 2, 7]
        assert sorted(g.neighbors(7)) == [3, 4, 5, 6]

    def test_overlap_cap(self):
        with pytest.raises(SpecInvalid) as err:
            validate_delta2(octahedron(), Delta2Spec((0, 1, 2), (0, 1, 2), [(0, 1)], [(0, 1)]))
        assert err.value.clause == "x-y-overlap"

    def test_shared_pair_allowed(self):
        h = complete_graph(6)
        spec = Delta2Spec((0, 1, 2), (0, 1, 3), [(0, 1)], [(0, 1)])
        validate_delta2(h, spec)
        g = apply_delta2(h, spec)
        assert not g.has_edge(0, 1)

    def test_connectivity_side_condition(self):
        h = complete_graph(5)
        spec = Delta2Spec((0, 1, 2), (0, 1, 3),
                          [(0, 1), (0, 2), (1, 2)], [(0, 3), (1, 3)])
        assert vertex_connectivity(remove_edges(h, set(spec.ex_edges) | set(spec.ey_edges))) < 2
        with pytest.raises(ConnectivityTooLow):
            validate_delta2(h, spec)

    def test_end_coverage_checked_at_kappa_2(self):
        # scan small hosts for a spec whose reduced graph has connectivity
        # exactly 2; the validator must then accept or name an offending end
        rng = random.Random(77)
        hit_ok = hit_bad = 0
        hosts = [complete_graph(5), octahedron(), complete_graph(6)]
        hosts += [random_4connected(rng, 6) for _ in range(6)]
        for h in hosts:
            for spec in delta2_specs(h):
                reduced = remove_edges(h, set(spec.ex_edges) | set(spec.ey_edges))
                if vertex_connectivity(reduced) != 2:
                    continue
                try:
                    validate_delta2(h, spec)
                    hit_ok += 1
                except EndCoverageViolated as err:
                    hit_bad += 1
                    body = err.end_body
                    assert not (body & set(spec.x_set)) or not (body & set(spec.y_set))
                except SpecInvalid:
                    pass
                if hit_ok and hit_bad:
                    return
        assert hit_ok and hit_bad, (hit_ok, hit_bad)


class TestSpecKind:
    D1 = Delta1Spec((0, 1, 2), 4, [(0, 2)])
    D2 = Delta2Spec((0, 1, 2), (4, 5, 6), [(0, 2)], [(4, 6)])

    def test_typed_functions_reject_the_other_kind(self):
        # unchecked, a delta-1 function would attach a delta-2 spec's new
        # pair; the kind is checked before anything else, so the host need
        # not even be 4-connected
        for h in (square_of_cycle(8), cycle_graph(8)):
            for fn, spec, want in ((validate_delta1, self.D2, "Delta1Spec"),
                                   (apply_delta1, self.D2, "Delta1Spec"),
                                   (validate_delta2, self.D1, "Delta2Spec"),
                                   (apply_delta2, self.D1, "Delta2Spec")):
                with pytest.raises(SpecInvalid, match=f"expected a {want}, got") as err:
                    fn(h, spec)
                assert err.value.clause == "spec-kind"

    def test_untyped_functions_take_either_kind(self):
        h = square_of_cycle(8)
        assert apply_delta(h, self.D1).n == 9 and apply_delta(h, self.D2).n == 10
        with pytest.raises(SpecInvalid) as err:
            apply_delta(h, (0, 1, 2))
        assert err.value.clause == "spec-kind"


class TestVertexIds:
    @pytest.mark.parametrize("make", [
        lambda: Delta1Spec((0, 1, 2), 3.7, [(0, 1)]),
        lambda: Delta1Spec((0, 1, 2), True, [(0, 1)]),
        lambda: Delta1Spec((0, 1.5, 2), 5, [(0, 2)]),
        lambda: Delta1Spec((0, 1, 2), 5, [(0, 2.0)]),
        lambda: Delta2Spec((0, 1, 2), (4, 5, 6.0), [(0, 2)], [(4, 5)]),
        lambda: Delta2Spec((0, 1, 2), (4, 5, 6), [(0, 2)], [(False, 5)]),
    ])
    def test_ids_that_are_not_ints_are_refused(self, make):
        # int() once read 3.7 as vertex 3 and True as vertex 1, and a float
        # in a 3-set reached the host's bit operations as a bare TypeError
        with pytest.raises(SpecInvalid) as err:
            apply_delta(square_of_cycle(8), make())
        assert err.value.clause == "vertex-ids"


    @pytest.mark.parametrize("make", [
        lambda: Delta1Spec(5, 3, []),
        lambda: Delta1Spec(None, 3, [(0, 1)]),
        lambda: Delta2Spec((0, 1, 2), 7, [], []),
    ])
    def test_a_3set_that_is_not_a_collection_is_refused(self, make):
        # each once escaped as a bare TypeError from tuple()
        with pytest.raises(SpecInvalid) as err:
            make()
        assert err.value.clause == "vertex-ids"


class TestEdgePairs:
    MALFORMED = [
        lambda: Delta1Spec((0, 1, 2), 3, [(0, 1, 2)]),
        lambda: Delta1Spec((0, 1, 2), 3, [(0,)]),
        lambda: Delta1Spec((0, 1, 2), 3, [0]),
        lambda: Delta1Spec((0, 1, 2), 3, 5),
        lambda: Delta2Spec((0, 1, 2), (3, 4, 5), [(0, 1)], [(3, 4, 5)]),
        lambda: Delta2Spec((0, 1, 2), (3, 4, 5), 7, [(3, 4)]),
    ]

    @pytest.mark.parametrize("make", MALFORMED)
    def test_a_removed_edge_that_is_not_a_pair_is_refused(self, make):
        # each once escaped as a bare ValueError or TypeError from unpacking
        with pytest.raises(SpecInvalid) as err:
            make()
        assert err.value.clause == "edge-pairs"


class TestRecords:
    """The specs, reports and budgets are named tuples; these pin what a
    caller sees of them."""
    D1 = Delta1Spec((2, 0, 1), 3, [(1, 0)])
    D2 = Delta2Spec((5, 4, 3), [2, 1, 0], [(4, 3)], [(2, 1), (0, 1)])
    VIOLATION = transform.CompatViolation((0, 1), "quasi_3cc", None, (0, 2, 1), None)

    def test_reprs_are_pinned(self):
        # generation reports its soundness failures as repr(spec)
        assert repr(self.D1) == "Delta1Spec(x_set=(0, 1, 2), y_vertex=3, ex_edges=((0, 1),))"
        assert repr(self.D2) == ("Delta2Spec(x_set=(3, 4, 5), y_set=(0, 1, 2), "
                                 "ex_edges=((3, 4),), ey_edges=((0, 1), (1, 2)))")
        assert repr(chording.SearchBudget()) == "SearchBudget(max_paths=1000000, max_len=None)"
        assert repr(self.VIOLATION) == ("CompatViolation(pair=(0, 1), predicate='quasi_3cc', "
                                        "added_edge=None, path=(0, 2, 1), detail=None)")

    def test_fields_cannot_be_assigned(self):
        for record in (self.D1, self.D2, chording.SearchBudget(), self.VIOLATION):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, 0)
            with pytest.raises(AttributeError):
                record.extra = 0

    def test_fields_are_normalised(self):
        assert (self.D1.x_set, self.D1.y_vertex, self.D1.ex_edges) == ((0, 1, 2), 3, ((0, 1),))
        assert self.D1 == Delta1Spec(x_set=[1, 2, 0], y_vertex=3, ex_edges={(0, 1)})
        assert self.D2 == Delta2Spec(*self.D2) == ((3, 4, 5), (0, 1, 2), ((3, 4),), ((0, 1), (1, 2)))

    def test_equal_specs_hash_equal(self):
        for a, b in ((self.D1, Delta1Spec([0, 2, 1], 3, ((0, 1),))),
                     (self.D2, Delta2Spec((3, 4, 5), (0, 1, 2), [(3, 4)], [(1, 2), (1, 0)]))):
            assert a == b and a is not b and hash(a) == hash(b) and len({a, b}) == 1

    def test_replace_normalises_and_checks(self):
        assert self.D1._replace(x_set=(4, 2, 3), ex_edges=[(3, 2)]) == Delta1Spec((2, 3, 4), 3, [(2, 3)])
        assert self.D2._replace(ey_edges=[(2, 0)]).ey_edges == ((0, 2),)
        with pytest.raises(SpecInvalid):
            self.D1._replace(y_vertex=3.0)
        with pytest.raises(GraphError):
            chording.SearchBudget()._replace(max_paths=0)


class TestEveryClause:
    def test_outcome_of_every_spec_is_pinned(self):
        # each spec of both types on five small hosts, one of them not
        # 4-connected: the clause apply_delta rejects it by, or the graph it
        # builds; the digest was taken from the earlier per-type clause checks
        digest = hashlib.sha256()
        count = 0
        for h in (complete_graph(5), octahedron(), octahedron_plus(), k6_minus_edge(),
                  cycle_graph(6)):
            for spec in (_spec(raw) for _, raw in _keyed_specs(h)):
                try:
                    outcome = format_graph6(apply_delta(h, spec))
                except SpecInvalid as exc:
                    outcome = exc.clause
                digest.update(f"{spec!r} {outcome}\n".encode())
                count += 1
        assert count == 20586
        assert digest.hexdigest() == (
            "32e469de073a467a9507b28f86f14550678a0ddc812ce1d7d071bc075aaf1141")


class TestEveryCompatReport:
    def test_report_of_every_clause_passing_spec_is_pinned(self):
        # the full report, witness included, of every spec that passes its
        # clauses: both types on K5 and the octahedron, delta-1 on the four
        # n = 7 closure hosts and on C9^2; the digest was taken before the
        # path sweeps skipped paths by their degree caps
        cat = generate_catalog(7)
        hosts = [(complete_graph(5), True), (octahedron(), True)]
        hosts += [(cat.representatives[c], False) for c in sorted(cat.certs_by_n[7])]
        hosts.append((square_of_cycle(9), False))
        digest = hashlib.sha256()
        outcomes = collections.Counter()
        for h, both in hosts:
            for spec in (_spec(raw) for _, raw in _keyed_specs(h, delta2=both)):
                try:
                    _clauses(h, spec)
                except SpecInvalid:
                    continue
                rep = is_quasi_4_compatible(h, spec)
                outcomes[rep.violation.predicate if rep.violation else "compatible"] += 1
                digest.update(repr((spec, rep)).encode())
        assert outcomes == {"quasi_3cc": 2400, "e_plus_quasi_3cc": 864, "quasi_chord": 180,
                            "compatible": 1233}
        assert digest.hexdigest() == (
            "973ca08a3fe00d007e0349aaee7c81dd366e815e5f636d5e698c32f1556f2efa")


class TestCompat:
    def test_low_connectivity_reduction_is_compatible(self):
        # the reduced host is a path-like ring: nowhere three disjoint
        # detours, so every exclusion clause holds vacuously
        h = cycle_graph(8)
        rep = is_quasi_4_compatible(h, Delta1Spec((0, 1, 2), 4, [(0, 1)]))
        assert rep.compatible and rep.violation is None

    def test_violation_reports_revalidate(self):
        rng = random.Random(55)
        seen = 0
        for _ in range(60):
            h = random_4connected(rng, rng.choice([6, 7]))
            specs = list(delta1_specs(h))
            spec = rng.choice(specs)
            rep = is_quasi_4_compatible(h, spec)
            if rep.compatible:
                continue
            seen += 1
            v = rep.violation
            reduced = remove_edges(h, spec.ex_edges)
            assert {v.path[0], v.path[-1]} == set(v.pair)
            if v.predicate == "quasi_3cc":
                assert verify_witness(reduced, v.detail)
                assert chording.exists_quasi_3cc_path(reduced, *v.pair)
        assert seen >= 10

    def test_delta2_eplus_violation_detail(self):
        # shared-pair fixture from the delta-2 audit: adding back the wiped
        # pair edge turns the plain edge path into a chording one
        h = complete_graph(5)
        spec = Delta2Spec((0, 1, 2), (0, 1, 3), [(0, 1)], [(0, 3)])
        rep = is_quasi_4_compatible(h, spec)
        assert not rep.compatible
        out = apply_delta2(h, spec)
        assert not is_uniformly_4_connected(out)[0]

    def test_shape_errors_raise(self):
        with pytest.raises(SpecInvalid):
            is_quasi_4_compatible(octahedron(), Delta1Spec((0, 1, 2), 4, []))

    def test_octahedron_type1_fixture_cross_checked(self):
        # verdict pinned by exhaustive enumeration and, independently, by
        # the equivalence with the uniformity of the expansion's output
        h = octahedron()
        spec = Delta1Spec((0, 1, 2), 4, [(0, 2)])
        rep = is_quasi_4_compatible(h, spec)
        reduced = remove_edges(h, [(0, 2)])
        pairs = [(0, 1), (1, 2)] + [(u, 4) for u in (0, 1, 2)]
        by_enumeration = not any(
            any(chording.classify_quasi_3cc(reduced, p) is not None
                for p in reference.all_simple_paths(reduced, u, v))
            for u, v in pairs)
        assert rep.compatible == by_enumeration
        assert rep.compatible == is_uniformly_4_connected(apply_delta1(h, spec))[0]

    def test_repeat_query_reuses_the_cached_witness(self):
        # one sweep per predicate: the repeat is answered from the verdict
        # cache, with the very witness the first sweep built
        chording.clear_caches()
        h, spec = octahedron(), Delta1Spec((0, 1, 2), 4, [(0, 2)])
        first = is_quasi_4_compatible(h, spec)
        assert not first.compatible
        info = chording._simple_paths.cache_info()
        second = is_quasi_4_compatible(h, spec)
        after = chording._simple_paths.cache_info()
        assert second.violation.detail is first.violation.detail
        assert after.hits + after.misses == info.hits + info.misses

    def test_budget_propagates(self):
        h = square_of_cycle(7)
        with pytest.raises(chording.BudgetExceeded):
            is_quasi_4_compatible(h, Delta1Spec((0, 1, 2), 4, [(0, 1)]),
                                  chording.SearchBudget(max_paths=1))


class TestRemovedEdgeSetReadings:
    def test_missing_edge_set_readings_agree(self):
        # "triangle edges missing from the host, plus the removed set" reads
        # the same whether the host is taken before or after removing the
        # ey edges themselves: the trailing union absorbs the difference
        rng = random.Random(66)
        for _ in range(40):
            h = random_4connected(rng, 6)
            specs = list(delta2_specs(h))
            if not specs:
                continue
            spec = rng.choice(specs)
            tri = set(itertools.combinations(sorted(spec.y_set), 2))
            before_removal = {e for e in tri if not h.has_edge(*e)} | set(spec.ey_edges)
            h_after = remove_edges(h, spec.ey_edges)
            after_removal = {e for e in tri if not h_after.has_edge(*e)} | set(spec.ey_edges)
            assert before_removal == after_removal


class TestStructuralProperties:
    def test_expansion_preserves_4_connectivity(self):
        # every validated application on a 4-connected host stays 4-connected
        rng = random.Random(10)
        count = 0
        hosts = [complete_graph(5), octahedron(), octahedron_plus(), k6_minus_edge()]
        hosts += [random_4connected(rng, rng.choice([6, 7])) for _ in range(4)]
        for h in hosts:
            for spec in itertools.islice(delta1_specs(h), 0, None, 7):
                try:
                    g = apply_delta1(h, spec)
                except SpecInvalid:
                    continue
                count += 1
                assert is_k_connected(g, 4)
        assert count > 50

    def test_removable_edge_in_completed_triangle(self):
        # uniform host, removable edge with a degree-4 endpoint whose outer
        # 3-set has at most one inner edge, non-uniform reduction of order
        # >= 7: some completion edge is removable in the reduction
        from unicon4 import construct
        checked = 0
        for g in construct.oracle_graphs(8):
            for e in removable_edges(g):
                x, y = e
                if g.degree(x) != 4 or g.degree(y) < 5:
                    x, y = y, x
                if g.degree(x) != 4 or g.degree(y) < 5:
                    continue
                xset = sorted(set(g.neighbors(x)) - {y})
                inner = [p for p in itertools.combinations(xset, 2) if g.has_edge(*p)]
                if len(inner) > 1:
                    continue
                h, remap = reduce_edge(g, e)
                if h.n < 7 or is_uniformly_4_connected(h)[0]:
                    continue
                checked += 1
                completed = [tuple(sorted((remap[a], remap[b])))
                             for a, b in itertools.combinations(xset, 2)
                             if not g.has_edge(a, b)]
                assert any(is_removable(h, e2) for e2 in completed)
        assert checked, "no corpus instance met the preconditions"
