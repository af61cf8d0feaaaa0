"""Regenerate bench/pins.json, the expected outputs the benchmark checks.

    PYTHONPATH=src python3 bench/pin.py

Run it only when a change of behaviour is intended and reviewed: a change
that moves a pinned digest is a behaviour change, not an optimisation.

The pins hold
  * census8: the sorted certificates of brute_force_uniform(n), n = 5..8;
  * closure8: the sorted certificates of generate_catalog(8) per order;
  * known_gap_n8: the certificates the oracle finds at n = 8 and the
    closure misses (K4,4 and the cube complement), an expected output;
  * pool: the queries16 graphs with their pinned command outcomes.
The pool's random 4-regular graphs come from networkx with fixed seeds and
are certified 4-connected by networkx.node_connectivity, without unicon4.
A uniform graph that does not decompose is kept with that outcome pinned.
"""

import contextlib
import io
import json
import random
import sys
from pathlib import Path

import networkx as nx

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from stats import cert_digest  # noqa: E402

POOL_SEED = 20250710
POOL_SCAN = 4  # random graphs drawn per order
POOL_KEEP = 2  # of which the first ones are kept, plus every one that does not decompose


def _cli(main, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, json.loads(buf.getvalue())


def _pool_entry(name, kind, n, edges, workdir):
    from unicon4 import Graph, canonical_cert, format_graph6
    from unicon4.cli import main
    g = Graph(n, edges)
    path = workdir / f"{name}.g6"
    path.write_text(format_graph6(g) + "\n", encoding="ascii")
    trace = workdir / f"{name}.trace.json"
    expect = {}
    expect["analyze"], doc = _cli(main, ["analyze", str(path)])
    expect["removable"], rem = _cli(main, ["removable", str(path)])
    expect["decompose"], _ = _cli(main, ["decompose", str(path), "-o", str(trace)])
    if expect["decompose"] == 0:
        expect["replay"], rep = _cli(main, ["replay", str(trace)])
    cert = canonical_cert(g).decode("ascii")
    if doc["uniform4"] is not True or expect["analyze"] != 0 or expect.get("replay", 0) != 0:
        raise SystemExit(f"pool graph {name} is not a clean positive: {expect}")
    if expect.get("replay") == 0 and rep["result_cert"] != cert:
        raise SystemExit(f"pool graph {name}: replay certificate differs from the input's")
    return {"name": name, "kind": kind, "edges": [list(e) for e in sorted(g.edges())],
            "cert": cert, "removable_count": rem["removable_count"], "expect": expect}


def pool(workdir):
    from unicon4 import square_of_cycle
    rng = random.Random(POOL_SEED)
    out = {}
    for n in range(9, 17):
        entries = [_pool_entry(f"c{n}sq", "square", n, square_of_cycle(n).edges(), workdir)]
        drawn = []
        while len(drawn) < POOL_SCAN:
            g = nx.random_regular_graph(4, n, seed=rng.randrange(2 ** 32))
            if nx.node_connectivity(g) != 4 or any(nx.is_isomorphic(g, h) for h in drawn):
                continue
            drawn.append(g)
            entry = _pool_entry(f"r{n}_{len(drawn)}", "random", n,
                                [tuple(sorted(e)) for e in g.edges()], workdir)
            if len(drawn) <= POOL_KEEP or entry["expect"]["decompose"] != 0:
                entries.append(entry)
        out[str(n)] = entries
        print(n, [e["expect"] for e in entries], flush=True)
    return out


def certs_by_n(sets):
    return {str(n): {"count": len(c), "sha256": cert_digest(c), "certs": sorted(c)}
            for n, c in sets.items()}


def main():
    import shutil
    from unicon4 import brute_force_uniform, generate_catalog
    census = {n: [c.decode("ascii") for c in brute_force_uniform(n)] for n in range(5, 9)}
    cat = generate_catalog(8)
    if cat.budget_hits or cat.soundness_failures:
        raise SystemExit("generate_catalog(8) is incomplete or unsound; nothing pinned")
    closure = {n: [c.decode("ascii") for c in certs] for n, certs in sorted(cat.certs_by_n.items())}
    workdir = HERE.parent / ".bench_work" / "pin"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        graphs = pool(workdir)
    finally:
        shutil.rmtree(workdir)
    pins = {"census8": certs_by_n(census), "closure8": certs_by_n(closure),
            "known_gap_n8": sorted(set(census[8]) - set(closure[8])), "pool": graphs}
    (HERE / "pins.json").write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
