"""Executable form of the constructive characterization: breadth-first
generation of every uniformly 4-connected graph up to a target order by
compatible expansions of the two base graphs, an independent census oracle
that grows every candidate isomorphism class one vertex at a time (n <= 9),
decomposition of any uniformly 4-connected graph back to a base with a
replayable trace, and the report that compares all three.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from .chording import DEFAULT_BUDGET, BudgetExceeded, SearchBudget
from .connectivity import is_uniformly_4_connected
from .graph_core import (Graph, GraphError, add_edges, add_vertex_with_neighbors,
                         automorphism_group, canonical_cert, canonical_form, delete_vertex,
                         find_isomorphism, format_graph6, square_of_cycle, _mask_bits)
from .transform import (CompatSet, Delta1Spec, Delta2Spec, SpecInvalid, _attach, _clauses,
                        is_quasi_4_compatible)

TRACE_SCHEMA = "unicon4.trace/v1"

BASE_TAGS = ("C5SQ", "C6SQ")

# candidates decompose examines before giving up (K4,4 exhausts its search after 784)
DECOMPOSE_CANDIDATES = 1_000_000


class NotUniform(GraphError):
    """Decomposition requires a uniformly 4-connected input."""


class DecompositionError(RuntimeError):
    pass


class StepInvalid(RuntimeError):
    def __init__(self, index: int, cause: str):
        super().__init__(f"trace step {index}: {cause}")
        self.index = index
        self.cause = cause


class CertMismatch(RuntimeError):
    def __init__(self, index: int, expected: bytes, got: bytes):
        super().__init__(f"trace step {index}: certificate mismatch")
        self.index = index
        self.expected = expected
        self.got = got


class TraceFormatError(ValueError):
    pass


@dataclass(frozen=True)
class TraceStep:
    op: str  # "delta1" | "delta2"
    spec: CompatSet
    post_cert: bytes


@dataclass(frozen=True)
class ConstructionTrace:
    base: str  # "C5SQ" | "C6SQ"
    steps: Tuple[TraceStep, ...]


def base_graph(tag: str) -> Graph:
    if tag == "C5SQ":
        return square_of_cycle(5)
    if tag == "C6SQ":
        return square_of_cycle(6)
    raise TraceFormatError(f"unknown base tag {tag!r}")


# -- trace (de)serialization, schema v1 ---------------------------------------


def trace_to_json(trace: ConstructionTrace) -> str:
    steps = []
    for s in trace.steps:
        d = {"op": s.op, "x_set": list(s.spec.x_set),
             "ex_edges": [list(e) for e in s.spec.ex_edges],
             "post_cert": s.post_cert.decode("ascii")}
        if isinstance(s.spec, Delta1Spec):
            d["y_vertex"] = s.spec.y_vertex
        else:
            d["y_set"] = list(s.spec.y_set)
            d["ey_edges"] = [list(e) for e in s.spec.ey_edges]
        steps.append(d)
    return json.dumps({"schema": TRACE_SCHEMA, "base": trace.base, "steps": steps}, indent=2)


def trace_from_json(text: str) -> ConstructionTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not JSON: {exc}") from None
    if not isinstance(doc, dict) or doc.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(f"expected schema {TRACE_SCHEMA}")
    if doc.get("base") not in BASE_TAGS:
        raise TraceFormatError(f"base must be one of {BASE_TAGS}")
    steps = []
    for i, d in enumerate(doc.get("steps", [])):
        try:
            op = d["op"]
            if op == "delta1":
                spec: CompatSet = Delta1Spec(d["x_set"], d["y_vertex"],
                                             [tuple(e) for e in d["ex_edges"]])
            elif op == "delta2":
                spec = Delta2Spec(d["x_set"], d["y_set"],
                                  [tuple(e) for e in d["ex_edges"]],
                                  [tuple(e) for e in d["ey_edges"]])
            else:
                raise TraceFormatError(f"step {i}: unknown op {op!r}")
            steps.append(TraceStep(op, spec, d["post_cert"].encode("ascii")))
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, TraceFormatError):
                raise
            raise TraceFormatError(f"step {i}: malformed ({exc})") from None
    return ConstructionTrace(doc["base"], tuple(steps))


# -- replay --------------------------------------------------------------------


def replay(trace: ConstructionTrace, budget: SearchBudget = DEFAULT_BUDGET,
           check_compat: bool = True) -> Graph:
    """Rebuild the trace's graph from its base, validating every step.

    Each step is re-validated (defining clauses, compatibility when
    check_compat, uniformity of the result) and its certificate compared;
    the first divergence raises StepInvalid or CertMismatch.
    """
    g = base_graph(trace.base)
    for i, step in enumerate(trace.steps):
        want = Delta1Spec if step.op == "delta1" else Delta2Spec
        if not isinstance(step.spec, want):
            raise StepInvalid(i, f"op {step.op} does not match spec kind")
        try:
            reduced = _clauses(g, step.spec)  # g is the base or a checked output: 4-connected
        except SpecInvalid as exc:
            raise StepInvalid(i, str(exc)) from None
        if check_compat:
            rep = is_quasi_4_compatible(g, step.spec, budget)
            if not rep.compatible:
                raise StepInvalid(i, f"parameter set not quasi-4-compatible "
                                     f"({rep.violation.predicate} at {rep.violation.pair})")
        g = _attach(reduced, step.spec)
        uniform, _ = is_uniformly_4_connected(g)
        if not uniform:
            raise StepInvalid(i, "step output is not uniformly 4-connected")
        got = canonical_cert(g)
        if got != step.post_cert:
            raise CertMismatch(i, step.post_cert, got)
    return g


# -- decomposition ---------------------------------------------------------------


def _parent_candidates(g: Graph) -> Iterator[Tuple[str, Graph, CompatSet]]:
    """Smaller host graphs H with an expansion spec rebuilding g.

    Candidates are derived from the degree-4 vertices: removing such a
    vertex (or an adjacent degree-4 pair) and restoring edges inside its
    outer neighborhood inverts an expansion.  Full restorations (the edge
    reduction of the removed attachment edge) come first.
    """
    deg4 = [v for v in range(g.n) if g.degree(v) == 4]
    for x in deg4:
        for y in sorted(g.neighbors(x)):
            xset = tuple(sorted(set(g.neighbors(x)) - {y}))
            missing_x = [e for e in itertools.combinations(xset, 2) if not g.has_edge(*e)]
            if not missing_x:
                continue
            if g.degree(y) >= 5:
                core, remap = delete_vertex(g, x)
                mx = tuple(sorted((remap[a], remap[b]) for a, b in missing_x))
                my = remap[y]
                mxs = tuple(remap[a] for a in xset)
                for exs in _subsets_largest_first(mx):
                    host = add_edges(core, exs)
                    yield "delta1", host, Delta1Spec(mxs, my, exs)
            elif y > x:
                yset = tuple(sorted(set(g.neighbors(y)) - {x}))
                if len(set(xset) & set(yset)) > 2:
                    continue
                missing_y = [e for e in itertools.combinations(yset, 2) if not g.has_edge(*e)]
                if not missing_y:
                    continue
                core1, rm1 = delete_vertex(g, x)
                core, rm2 = delete_vertex(core1, rm1[y])
                remap = {v: rm2[rm1[v]] for v in range(g.n) if v not in (x, y)}
                mx = tuple(sorted((remap[a], remap[b]) for a, b in missing_x))
                my = tuple(sorted((remap[a], remap[b]) for a, b in missing_y))
                mxs = tuple(remap[a] for a in xset)
                mys = tuple(remap[a] for a in yset)
                for exs in _subsets_largest_first(mx):
                    for eys in _subsets_largest_first(my):
                        host = add_edges(core, set(exs) | set(eys))
                        yield "delta2", host, Delta2Spec(mxs, mys, exs, eys)


def _subsets_largest_first(edges: Tuple) -> Iterator[Tuple]:
    for size in range(len(edges), 0, -1):
        yield from itertools.combinations(edges, size)


def decompose(g: Graph) -> ConstructionTrace:
    """A replayable construction of (a graph isomorphic to) g from a base.

    Depth-first search over parent candidates in a fixed order, descending
    only into uniformly 4-connected parents, so every emitted intermediate
    is itself uniformly 4-connected.  At most DECOMPOSE_CANDIDATES
    candidates are examined across the whole search.
    """
    uniform, _ = is_uniformly_4_connected(g)
    if not uniform:
        raise NotUniform("decomposition is defined for uniformly 4-connected graphs")
    base_of = {canonical_cert(base_graph(tag)): tag for tag in BASE_TAGS}
    nodes = [0]

    def search(cur: Graph) -> Tuple[str, List[TraceStep], Graph]:
        cert = canonical_cert(cur)
        if cert in base_of:
            return base_of[cert], [], base_graph(base_of[cert])
        for op, host, spec in _parent_candidates(cur):
            nodes[0] += 1
            if nodes[0] > DECOMPOSE_CANDIDATES:
                raise BudgetExceeded(f"decomposition examined {nodes[0]} candidates")
            # a vertex of degree < 4 already rules the host out, so skip the
            # cut witness that is_uniformly_4_connected would build for it
            if host.min_degree() < 4 or not is_uniformly_4_connected(host)[0]:
                continue
            try:
                _clauses(host, spec)  # host was just checked uniformly 4-connected
            except SpecInvalid:
                continue
            try:
                tag, steps, rebuilt = search(host)
            except DecompositionError:
                continue
            iso = find_isomorphism(host, rebuilt)
            if iso is None:
                raise RuntimeError("the rebuilt parent is not isomorphic to the candidate host")
            moved = _map_spec(spec, iso)
            # rebuilt is isomorphic to the uniformly 4-connected host
            out = _attach(_clauses(rebuilt, moved), moved)
            if canonical_cert(out) != cert:
                raise RuntimeError("the rebuilt expansion does not reproduce the decomposed graph")
            steps.append(TraceStep(op, moved, cert))
            return tag, steps, out
        raise DecompositionError(f"no uniformly 4-connected parent found for {cur!r}")

    tag, steps, _ = search(g)
    return ConstructionTrace(tag, tuple(steps))


def _map_spec(spec: CompatSet, iso: Union[Dict[int, int], Tuple[int, ...]]) -> CompatSet:
    def me(edges):
        return tuple((iso[a], iso[b]) for a, b in edges)
    if isinstance(spec, Delta1Spec):
        return Delta1Spec(tuple(iso[v] for v in spec.x_set), iso[spec.y_vertex], me(spec.ex_edges))
    return Delta2Spec(tuple(iso[v] for v in spec.x_set), tuple(iso[v] for v in spec.y_set),
                      me(spec.ex_edges), me(spec.ey_edges))


# -- census oracle ----------------------------------------------------------------


def _children(parent: Graph, maxdeg: int) -> Iterator[Graph]:
    """Every one-vertex extension of parent that keeps the census bounds.

    The new vertex k misses (in G) a set S of at most maxdeg vertices whose
    complement degree is still below maxdeg, and sees every other vertex.
    A pair with c common neighbors has local connectivity at least c + 1
    when adjacent and at least c otherwise, so c may not exceed 3 / 4.  The
    new vertex is checked against each old vertex, and it must not see both
    ends of a pair that is already at its bound.
    """
    k = parent.n
    adj = [parent.adj_mask(v) for v in range(k)]
    avail = [v for v in range(k) if k - 1 - adj[v].bit_count() < maxdeg]
    tight = [(1 << a) | (1 << b) for a, b in itertools.combinations(range(k), 2)
             if (adj[a] & adj[b]).bit_count() == (3 if adj[a] >> b & 1 else 4)]
    full = (1 << k) - 1
    for size in range(min(maxdeg, len(avail)) + 1):
        for miss in itertools.combinations(avail, size):
            new = full
            for v in miss:
                new ^= 1 << v
            if any(new & t == t for t in tight):
                continue
            if any((adj[u] & new).bit_count() > (3 if new >> u & 1 else 4) for u in range(k)):
                continue
            yield add_vertex_with_neighbors(parent, _mask_bits(new))


def _oracle(n: int) -> Dict[bytes, Graph]:
    """Every uniformly 4-connected graph on n vertices, keyed by certificate.

    Grows the census one isomorphism class at a time.  Minimum degree 4
    (complement degree at most n - 5) and the common-neighbor bounds of
    _children are necessary for uniform 4-connectivity, and hereditary:
    every induced subgraph of a graph that meets them meets them too
    (complement degrees and common-neighbor counts only grow as vertices
    are added).  So each class on k + 1 vertices is a child of a class on
    k vertices, and extending every class of level k by one vertex, then
    keeping one canonical form per class, gives all of level k + 1.  The
    classes on n vertices then pass the authoritative uniformity test.
    Only canonical labeling and the connectivity layer are used; nothing
    from the expansion machinery is consulted.
    """
    if not 5 <= n <= 9:
        raise GraphError("the census is supported for 5 <= n <= 9")
    level = {Graph(1)}
    for _ in range(1, n):
        level = {canonical_form(child) for parent in level for child in _children(parent, n - 5)}
    # each member is its own canonical form, so its graph6 is its certificate
    return {format_graph6(g).encode("ascii"): g for g in level if is_uniformly_4_connected(g)[0]}


def brute_force_uniform(n: int) -> FrozenSet[bytes]:
    return frozenset(_oracle(n))


def oracle_graphs(n: int) -> Tuple[Graph, ...]:
    """Canonical representatives of the oracle's certificates, sorted."""
    cat = _oracle(n)
    return tuple(cat[c] for c in sorted(cat))


# -- generation ---------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationResult:
    n_max: int
    certs_by_n: Dict[int, FrozenSet[bytes]]
    representatives: Dict[bytes, Graph]
    complete: bool
    budget_hits: int
    soundness_failures: Tuple[Tuple[bytes, str], ...]

    def all_certs(self) -> FrozenSet[bytes]:
        out: set = set()
        for certs in self.certs_by_n.values():
            out |= certs
        return frozenset(out)


def _delta1_specs(h: Graph) -> Iterator[Delta1Spec]:
    for xs in itertools.combinations(range(h.n), 3):
        inside = [e for e in itertools.combinations(xs, 2) if h.has_edge(*e)]
        if not inside:
            continue
        for r in range(1, len(inside) + 1):
            for exs in itertools.combinations(inside, r):
                for y in range(h.n):
                    if y not in xs:
                        yield Delta1Spec(xs, y, exs)


def _delta2_specs(h: Graph) -> Iterator[Delta2Spec]:
    combos = []
    for xs in itertools.combinations(range(h.n), 3):
        inside = [e for e in itertools.combinations(xs, 2) if h.has_edge(*e)]
        if inside:
            subsets = [s for r in range(1, len(inside) + 1)
                       for s in itertools.combinations(inside, r)]
            combos.append((xs, subsets))
    # unordered pairs: swapping the two sides relabels the two new vertices
    for i in range(len(combos)):
        xs, xsubs = combos[i]
        for j in range(i + 1, len(combos)):
            ys, ysubs = combos[j]
            if len(set(xs) & set(ys)) > 2:
                continue
            for exs in xsubs:
                for eys in ysubs:
                    yield Delta2Spec(xs, ys, exs, eys)


def _kn_path_count(n: int) -> int:
    """The number of simple u-v paths in K_n, the most that any graph on
    n vertices has between two of its vertices."""
    return sum(math.factorial(n - 2) // math.factorial(k) for k in range(n - 1))


def _image(spec: CompatSet, perm: Tuple[int, ...]) -> CompatSet:
    """The spec moved by a host automorphism, in the form the enumeration
    yields: a delta-2 image whose x_set sorts after its y_set swaps sides."""
    moved = _map_spec(spec, perm)
    if isinstance(moved, Delta2Spec) and moved.x_set > moved.y_set:
        return Delta2Spec(moved.y_set, moved.x_set, moved.ey_edges, moved.ex_edges)
    return moved


def generate_catalog(n_max: int, budget: SearchBudget = DEFAULT_BUDGET) -> GenerationResult:
    """Closure of the two bases under compatible expansions, up to n_max.

    Each host's specs are checked once per orbit of its automorphism group.
    An automorphism maps the reduced host of a spec isomorphically onto the
    reduced host of the image spec, so the clauses, every complete path
    sweep, the output's certificate and its uniformity agree across the
    orbit.  The delta-2 clauses and compatibility conditions are symmetric
    in the two sides, so an image with its sides swapped back into
    enumeration order has the same outcome.  A sweep the budget truncates
    keeps the first max_paths paths in label order, which an automorphism
    does not preserve; so the outcome is reused only when no sweep on the
    host can be truncated (max_len None or at least the host order, and
    max_paths at least the path count of the complete graph on that many
    vertices), and otherwise every spec is checked on its own.  Soundness
    failures are still reported once per failing spec, in enumeration order.
    """
    if not 5 <= n_max <= 9:
        raise GraphError("generation is supported for 5 <= n_max <= 9")
    by_n: Dict[int, Dict[bytes, Graph]] = {n: {} for n in range(5, n_max + 1)}
    for tag in BASE_TAGS:
        b = base_graph(tag)
        if b.n <= n_max:
            by_n[b.n][canonical_cert(b)] = canonical_form(b)
    budget_hits = 0
    failures: List[Tuple[bytes, str]] = []

    def outcome(host: Graph, spec: CompatSet) -> Optional[Tuple[bytes, bool]]:
        """None when the spec gives no output, else the output's certificate
        and uniformity; a uniform output joins the catalog."""
        try:
            reduced = _clauses(host, spec)  # host is a base or a checked output: 4-connected
        except SpecInvalid:
            return None
        if not is_quasi_4_compatible(host, spec, budget).compatible:
            return None
        out = _attach(reduced, spec)
        cert = canonical_cert(out)
        uniform = is_uniformly_4_connected(out)[0]
        if uniform and cert not in by_n[out.n]:
            by_n[out.n][cert] = canonical_form(out)
        return cert, uniform

    for n in range(5, n_max + 1):
        untruncated = ((budget.max_len is None or budget.max_len >= n)
                       and budget.max_paths >= _kn_path_count(n))
        for cert in sorted(by_n[n]):
            host = by_n[n][cert]
            autos = automorphism_group(host) if untruncated else ()
            known: Dict[CompatSet, Optional[Tuple[bytes, bool]]] = {}
            specs = itertools.chain(_delta1_specs(host) if n + 1 <= n_max else (),
                                    _delta2_specs(host) if n + 2 <= n_max else ())
            for spec in specs:
                if spec in known:
                    result = known[spec]
                else:
                    try:
                        result = outcome(host, spec)
                    except BudgetExceeded:
                        budget_hits += 1
                        continue
                    for perm in autos:
                        known[_image(spec, perm)] = result
                if result is not None and not result[1]:
                    failures.append((result[0], repr(spec)))

    reps: Dict[bytes, Graph] = {}
    for n in range(5, n_max + 1):
        reps.update(by_n[n])
    return GenerationResult(
        n_max=n_max,
        certs_by_n={n: frozenset(by_n[n]) for n in range(5, n_max + 1)},
        representatives=reps,
        complete=budget_hits == 0,
        budget_hits=budget_hits,
        soundness_failures=tuple(failures))


def generate_all(n_max: int, budget: SearchBudget = DEFAULT_BUDGET) -> FrozenSet[bytes]:
    return generate_catalog(n_max, budget).all_certs()


# -- the comparison report -----------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    n_max: int
    oracle_by_n: Dict[int, FrozenSet[bytes]]
    generated_by_n: Dict[int, FrozenSet[bytes]]
    only_oracle: Dict[int, FrozenSet[bytes]]
    only_generated: Dict[int, FrozenSet[bytes]]
    decompose_ok: Dict[bytes, bool]
    soundness_failures: Tuple[Tuple[bytes, str], ...]
    complete: bool  # False when a search budget cut generation or a round trip short
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return (self.complete and all(not s for s in self.only_oracle.values())
                and all(not s for s in self.only_generated.values())
                and all(self.decompose_ok.values())
                and not self.soundness_failures)


def verify_theorem(n_max: int, budget: SearchBudget = DEFAULT_BUDGET) -> VerificationReport:
    """Oracle set vs generated set plus a decompose/replay round trip for
    every oracle graph; the characterization holds on this range iff all
    three agree and no search was cut short by the budget."""
    if not 5 <= n_max <= 8:
        raise GraphError("verification is supported for 5 <= n_max <= 8")
    timings: Dict[str, float] = {}
    t0 = time.perf_counter()
    census = {n: _oracle(n) for n in range(5, n_max + 1)}
    oracle_by_n = {n: frozenset(found) for n, found in census.items()}
    timings["oracle"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    cat = generate_catalog(n_max, budget)
    timings["generate"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    decompose_ok: Dict[bytes, bool] = {}
    complete = cat.complete
    for n in range(5, n_max + 1):
        for cert in sorted(census[n]):
            g = census[n][cert]
            try:
                rebuilt = replay(decompose(g), budget)
                decompose_ok[cert] = canonical_cert(rebuilt) == cert
            except (DecompositionError, StepInvalid, CertMismatch, BudgetExceeded, NotUniform) as exc:
                decompose_ok[cert] = False
                complete &= not isinstance(exc, BudgetExceeded)
    timings["decompose"] = time.perf_counter() - t0
    only_oracle = {}
    only_generated = {}
    for n in range(5, n_max + 1):
        gen = cat.certs_by_n.get(n, frozenset())
        only_oracle[n] = frozenset(oracle_by_n[n] - gen)
        only_generated[n] = frozenset(gen - oracle_by_n[n])
    return VerificationReport(
        n_max=n_max,
        oracle_by_n=oracle_by_n,
        generated_by_n={n: cat.certs_by_n.get(n, frozenset()) for n in range(5, n_max + 1)},
        only_oracle=only_oracle,
        only_generated=only_generated,
        decompose_ok=decompose_ok,
        soundness_failures=cat.soundness_failures,
        complete=complete,
        timings=timings)
