"""Acceptance suite: one test per criterion, one pass/fail line printed each.

Criterion 6 asserts the small-order closure/oracle equality at n = 8 and the
decompose round trip for every oracle graph.  Two 8-vertex, 4-regular,
uniformly 4-connected graphs (complete bipartite 4+4 and the cube
complement) admit no uniformly 4-connected parent under either expansion,
so that criterion fails; the assertion message carries the full analysis.
The failure is a property of the characterization itself, not of the
implementation: both graphs' uniformity is certified here by an
independent exhaustive path packing, and the parent scan is exhaustive.
"""

import hashlib
import itertools
import math
import random
import time

from unicon4 import (Delta1Spec, Delta2Spec, SpecInvalid, apply_delta, brute_force_uniform,
                     canonical_cert, complete_graph, decompose, generate_catalog,
                     is_k_connected, is_quasi_4_compatible, is_removable,
                     is_removable_structural, is_uniformly_4_connected, k6_minus_edge,
                     local_connectivity, octahedron, octahedron_plus, oracle_graphs, replay,
                     square_of_cycle, validate_delta)
from unicon4.graph_core import are_isomorphic, format_graph6

import reference


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def four_connected_graphs_on_6_vertices():
    classes = {}
    for g in reference.all_labeled_graphs(6):
        if g.min_degree() < 4:
            continue
        if is_k_connected(g, 4):
            classes.setdefault(canonical_cert(g), g)
    return classes


def criterion3_corpus():
    rng = random.Random(20260809)
    corpus = list(oracle_graphs(7)) + list(oracle_graphs(8))
    target = len(corpus) + 100
    while len(corpus) < target:
        n = rng.choice([7, 8])
        g = reference.random_graph(rng, n, rng.choice([0.6, 0.7, 0.8]))
        if is_k_connected(g, 4):
            corpus.append(g)
    return corpus


def edge_subsets_of_triples(h):
    """(3-set, its nonempty edge subsets) for each 3-set spanning an edge."""
    out = []
    for xs in itertools.combinations(range(h.n), 3):
        inside = [e for e in itertools.combinations(xs, 2) if h.has_edge(*e)]
        if inside:
            out.append((xs, [s for r in range(1, len(inside) + 1)
                             for s in itertools.combinations(inside, r)]))
    return out


def delta1_blocks(h):
    return [(xs, (subs, [y for y in range(h.n) if y not in xs]))
            for xs, subs in edge_subsets_of_triples(h)]


def delta2_blocks(h):
    combos = edge_subsets_of_triples(h)
    return [((xs, ys), (xsubs, ysubs))
            for i, (xs, xsubs) in enumerate(combos)
            for ys, ysubs in combos[i + 1:] if len(set(xs) & set(ys)) <= 2]


def all_delta1_specs(h):
    for xs, (subs, ys) in delta1_blocks(h):
        for exs in subs:
            for y in ys:
                yield Delta1Spec(xs, y, exs)


def all_delta2_specs(h):
    for (xs, ys), (xsubs, ysubs) in delta2_blocks(h):
        for exs in xsubs:
            for eys in ysubs:
                yield Delta2Spec(xs, ys, exs, eys)


def every_nth(blocks, step):
    """(key, choice) for every step-th item of the blocks' concatenated
    products, in itertools.product order; skipped items are never built."""
    offset = 0
    for key, seqs in blocks:
        size = math.prod(len(s) for s in seqs)
        for t in range(-offset % step, size, step):
            choice = []
            for seq in reversed(seqs):
                t, r = divmod(t, len(seq))
                choice.append(seq[r])
            yield key, choice[::-1]
        offset += size


def sampled_delta1_specs(h, step):
    """The list of all_delta1_specs(h)[::step]."""
    return [Delta1Spec(xs, y, exs) for xs, (exs, y) in every_nth(delta1_blocks(h), step)]


def sampled_delta2_specs(h, step):
    """The list of all_delta2_specs(h)[::step]."""
    return [Delta2Spec(xs, ys, exs, eys)
            for (xs, ys), (exs, eys) in every_nth(delta2_blocks(h), step)]


def test_criterion_1_base_case_recognition():
    t0 = time.perf_counter()
    ok_bases = all(is_uniformly_4_connected(g)[0]
                   for g in (square_of_cycle(5), square_of_cycle(6)))
    ok_non = not any(is_uniformly_4_connected(g)[0]
                     for g in (octahedron_plus(), k6_minus_edge(), complete_graph(6)))
    classes = four_connected_graphs_on_6_vertices()
    expected = {canonical_cert(g): name for g, name in
                ((octahedron(), "C6SQ"), (octahedron_plus(), "Oct+"),
                 (k6_minus_edge(), "K6-e"), (complete_graph(6), "K6"))}
    partition_ok = set(classes) == set(expected)
    uniform_split_ok = all(is_uniformly_4_connected(classes[c])[0] == (expected[c] == "C6SQ")
                           for c in expected)
    ok = ok_bases and ok_non and partition_ok and uniform_split_ok
    report(1, ok, f"bases uniform, Oct+/K6-e/K6 not; 4-connected 6-vertex classes = "
                  f"{sorted(expected[c] for c in classes)} ({time.perf_counter()-t0:.2f}s)")
    assert ok


def test_criterion_2_graphs_without_removable_edges():
    t0 = time.perf_counter()
    five = {canonical_cert(complete_graph(5)): complete_graph(5)}
    for g in reference.all_labeled_graphs(5):
        if g.min_degree() >= 4 and is_k_connected(g, 4):
            five.setdefault(canonical_cert(g), g)
    five.update(four_connected_graphs_on_6_vertices())
    assert len(five) == 5
    none_removable = {c for c, g in five.items()
                      if not any(is_removable(g, e) for e in g.edges())}
    expected = {canonical_cert(square_of_cycle(5)), canonical_cert(square_of_cycle(6))}
    ok = none_removable == expected
    report(2, ok, f"of the 5 4-connected graphs on <= 6 vertices, exactly the two base "
                  f"graphs lack removable edges ({time.perf_counter()-t0:.2f}s)")
    assert ok


def test_criterion_3_structural_removability_equivalence():
    t0 = time.perf_counter()
    corpus = criterion3_corpus()
    checked = mismatches = 0
    for g in corpus:
        for e in g.edges():
            checked += 1
            if is_removable(g, e) != is_removable_structural(g, e):
                mismatches += 1
    ok = mismatches == 0
    report(3, ok, f"direct vs 3-separator removability on {checked} edges of "
                  f"{len(corpus)} graphs, {mismatches} mismatches ({time.perf_counter()-t0:.1f}s)")
    assert ok


def test_criterion_4_expansions_preserve_4_connectivity():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    corpus = criterion3_corpus()
    sampled = {h: (sampled_delta1_specs(h, 11), sampled_delta2_specs(h, 173)) for h in corpus}
    # sha256 of the islice(all_delta*_specs(h), 0, None, 11 / 173) lists, one repr per line
    lines = [repr(s) for h in corpus for specs in sampled[h] for s in specs]
    digest = hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()
    assert digest == "1057b6648126129fbe7ab99a05331e8f3a3b57f268c58074f8ddf4e4f26dc41a"
    applied = failures = 0
    while applied < 1000:
        h = rng.choice(corpus)
        specs = sampled[h][0] if rng.random() < 0.5 else sampled[h][1]
        if not specs:
            continue
        spec = rng.choice(specs)
        try:
            validate_delta(h, spec)
        except SpecInvalid:
            continue
        out = apply_delta(h, spec)
        applied += 1
        if not is_k_connected(out, 4):
            failures += 1
    ok = failures == 0
    report(4, ok, f"{applied} validated expansions applied, {failures} dropped below "
                  f"4-connectivity ({time.perf_counter()-t0:.1f}s)")
    assert ok


def _equivalence_failures(host, specs):
    bad = []
    for spec in specs:
        try:
            validate_delta(host, spec)
        except SpecInvalid:
            continue
        compat = is_quasi_4_compatible(host, spec).compatible
        uniform = is_uniformly_4_connected(apply_delta(host, spec))[0]
        if compat != uniform:
            bad.append((host, spec, compat, uniform))
    return bad


def test_criterion_5_compatibility_equals_uniformity():
    t0 = time.perf_counter()
    mismatches = []
    exhaustive = 0
    for host in (complete_graph(5), octahedron()):
        for spec in itertools.chain(all_delta1_specs(host), all_delta2_specs(host)):
            try:
                validate_delta(host, spec)
            except SpecInvalid:
                continue
            exhaustive += 1
            compat = is_quasi_4_compatible(host, spec).compatible
            uniform = is_uniformly_4_connected(apply_delta(host, spec))[0]
            if compat != uniform:
                mismatches.append((host, spec, compat, uniform))
    sampled = 0
    rng = random.Random(55555)
    pools = []
    for host in oracle_graphs(7):
        pool = list(all_delta1_specs(host)) + list(all_delta2_specs(host))
        pools.append((host, pool))
    while sampled < 10_000:
        host, pool = pools[rng.randrange(len(pools))]
        spec = pool[rng.randrange(len(pool))]
        try:
            validate_delta(host, spec)
        except SpecInvalid:
            continue
        sampled += 1
        compat = is_quasi_4_compatible(host, spec).compatible
        uniform = is_uniformly_4_connected(apply_delta(host, spec))[0]
        if compat != uniform:
            mismatches.append((host, spec, compat, uniform))
    ok = not mismatches
    report(5, ok, f"{exhaustive} specs exhaustively at n<=6 plus {sampled} sampled at n=7; "
                  f"{len(mismatches)} verdict mismatches ({time.perf_counter()-t0:.1f}s)")
    assert ok, mismatches[:3]


def test_criterion_6_generation_equals_oracle_with_decompose():
    t0 = time.perf_counter()
    oracle8 = brute_force_uniform(8)
    generated = generate_catalog(8)
    gen8 = generated.certs_by_n[8]
    missing = sorted(c.decode() for c in oracle8 - gen8)
    extra = sorted(c.decode() for c in gen8 - oracle8)
    decompose_bad = []
    for n in (7, 8):
        for g in oracle_graphs(n):
            try:
                rebuilt = replay(decompose(g))
                if not are_isomorphic(rebuilt, g):
                    decompose_bad.append(format_graph6(g))
            except Exception:
                decompose_bad.append(format_graph6(g))
    ok = not missing and not extra and not decompose_bad
    report(6, ok, f"oracle(8)={len(oracle8)} vs generated(8)={len(gen8)}; "
                  f"unreachable={missing}; spurious={extra}; "
                  f"decompose failures={decompose_bad} ({time.perf_counter()-t0:.1f}s)")
    assert ok, (
        "The constructive characterization misses graphs at n=8. "
        f"Uniformly 4-connected but not generated: {missing} "
        "(G?~vf_ is complete bipartite 4+4, GJem^_ is the cube complement; both "
        "4-regular, so no single-vertex expansion applies, and an exhaustive scan "
        "of every two-vertex parent finds none uniformly 4-connected; their "
        "uniformity is certified independently by exhaustive disjoint-path "
        f"packing). Decompose fails for exactly those graphs: {decompose_bad}. "
        "See the decisions ledger for the proof-gap analysis.")


def test_criterion_7_flow_matches_exhaustive_path_packing():
    t0 = time.perf_counter()
    rng = random.Random(777)
    corpus = []
    while len(corpus) < 50:
        n = rng.randint(2, 7)
        corpus.append(reference.random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9])))
    checked = bad = 0
    for g in corpus:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                checked += 1
                if local_connectivity(g, u, v) != reference.brute_local_connectivity(g, u, v):
                    bad += 1
    ok = bad == 0
    report(7, ok, f"flow vs exhaustive disjoint-path packing on {checked} pairs across "
                  f"50 graphs, {bad} disagreements ({time.perf_counter()-t0:.1f}s)")
    assert ok


def test_criterion_8_triangle_apex_removable_edge():
    t0 = time.perf_counter()
    triangles = counterexamples = 0
    for n in (7, 8):
        for g in oracle_graphs(n):
            for tri in itertools.combinations(range(g.n), 3):
                a, b, c = tri
                if not (g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)):
                    continue
                for x in tri:
                    if g.degree(x) < 5:
                        continue
                    triangles += 1
                    others = [y for y in tri if y != x]
                    if not any(is_removable(g, (min(x, y), max(x, y))) for y in others):
                        counterexamples += 1
    ok = counterexamples == 0 and triangles > 0
    report(8, ok, f"{triangles} triangle/apex incidences swept in the n=7,8 oracle graphs, "
                  f"{counterexamples} counterexamples ({time.perf_counter()-t0:.1f}s)")
    assert ok
