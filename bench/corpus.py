"""The seeded graph corpus of the queries16 workload.

Positives are the pinned pool in pins.json: for every order n in 9..16 the
squared cycle C_n^2 and random 4-regular graphs that networkx certified
4-connected when the pool was made (a 4-regular, 4-connected graph is
uniformly 4-connected).  They are the same for every seed, so the cost of a
pass does not depend on the seed: a random relabeling alone moved one n = 16
replay between 1.4 s and 3.3 s.  The seed draws the negatives, one per
order (about a quarter of the corpus), and the order of the graphs.
Negatives fail by construction: one added edge gives its endpoints a fifth
path, one deleted edge leaves a vertex of degree 3.

Every command's exit code is known before the run: from the construction
for negatives, and from the pool's pinned outcomes for positives, which
include the uniform graphs that do not decompose.
"""

from __future__ import annotations

import itertools
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ORDERS = tuple(range(9, 17))
SMOKE_ORDERS = (9, 10)
COMMANDS = ("analyze", "removable", "decompose", "replay")  # per graph, in this order

Edge = Tuple[int, int]


def format_graph6(n: int, edges: Sequence[Edge]) -> str:
    """graph6 text of a graph on 0..n-1 (n <= 62), written without unicon4."""
    adj = set((min(u, v), max(u, v)) for u, v in edges)
    bits = [1 if (i, j) in adj else 0 for j in range(1, n) for i in range(j)]
    bits += [0] * (-len(bits) % 6)
    out = [chr(n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = val << 1 | b
        out.append(chr(val + 63))
    return "".join(out)


def build(pool: Dict[str, list], seed: int, orders: Sequence[int] = ORDERS) -> List[dict]:
    """The corpus for one seed: a list of graphs, each with its commands'
    expected exit codes and pinned outputs, in the order they run."""
    rng = random.Random(seed)
    graphs = [{"n": n, "source": e["name"], "kind": "positive", "edges": [tuple(x) for x in e["edges"]],
               "cert": e["cert"], "removable_count": e["removable_count"], "expect": dict(e["expect"])}
              for n in orders for e in pool[str(n)]]
    # one negative per order, the kinds alternating across orders, so that
    # every seed pays for the same mix of sizes and kinds
    negatives = []
    flip = rng.randrange(2)
    for i, n in enumerate(orders):
        base = rng.choice([g for g in graphs if g["n"] == n])
        edges = base["edges"]
        if (i + flip) % 2 == 0:
            present = set(edges)
            extra = rng.choice([e for e in itertools.combinations(range(n), 2) if e not in present])
            negatives.append({"n": n, "source": base["source"], "kind": "plus_edge",
                              "edges": sorted(edges + [extra]),
                              "expect": {"analyze": 1, "removable": 0, "decompose": 1}})
        else:
            drop = rng.choice(edges)
            negatives.append({"n": n, "source": base["source"], "kind": "minus_edge",
                              "edges": [e for e in edges if e != drop],
                              "expect": {"analyze": 1, "removable": 2, "decompose": 1}})
    graphs += negatives
    rng.shuffle(graphs)
    return graphs


def write(graphs: List[dict], workdir: Path) -> List[dict]:
    """Write each graph as a .g6 file into workdir and return the command
    list: one entry per CLI call, in run order.  Trace files are named
    relative to the working directory of the process that runs the
    commands, so that processes running side by side keep theirs apart."""
    commands = []
    for i, g in enumerate(graphs):
        path = workdir / f"g{i:03d}.g6"
        path.write_text(format_graph6(g["n"], g["edges"]) + "\n", encoding="ascii")
        trace = f"g{i:03d}.trace.json"
        for cmd in (c for c in COMMANDS if c in g["expect"]):
            if cmd == "replay":
                argv = ["replay", trace]
            elif cmd == "decompose":
                argv = ["decompose", str(path), "-o", trace]
            else:
                argv = [cmd, str(path)]
            commands.append({"graph": i, "argv": argv})
    return commands


def check(graph: dict, cmd: str, code: int, fields: dict) -> List[str]:
    """Mismatches between one command's outcome and the graph's pins."""
    problems = []
    want = graph["expect"][cmd]
    if code != want:
        problems.append(f"exit {code}, expected {want}")
    if code != 0 and cmd != "analyze":
        return problems
    n, m = graph["n"], len(graph["edges"])
    if cmd == "analyze":
        kind = {"positive": None, "plus_edge": "five_fan", "minus_edge": "cut"}[graph["kind"]]
        if fields.get("uniform4") is not (graph["kind"] == "positive"):
            problems.append(f"uniform4 {fields.get('uniform4')}")
        if fields.get("witness") != kind:
            problems.append(f"witness {fields.get('witness')}, expected {kind}")
    elif cmd == "removable":
        if fields.get("rows") != m:
            problems.append(f"{fields.get('rows')} rows for {m} edges")
        if graph["kind"] == "positive" and fields.get("removable_count") != graph["removable_count"]:
            problems.append(f"removable_count {fields.get('removable_count')}, "
                            f"pinned {graph['removable_count']}")
    elif cmd == "decompose":
        # each step adds one vertex (delta1) or two (delta2)
        grow = n - {"C5SQ": 5, "C6SQ": 6}.get(fields.get("base"), n)
        if not (grow + 1) // 2 <= (fields.get("steps") or 0) <= grow:
            problems.append(f"{fields.get('steps')} steps from base {fields.get('base')} to n={n}")
    elif cmd == "replay":
        if fields.get("result_cert") != graph["cert"]:
            problems.append(f"result_cert {fields.get('result_cert')} != input cert {graph['cert']}")
    return problems
