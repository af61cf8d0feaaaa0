import ast
import importlib.util
import subprocess
import sys
import typing
from pathlib import Path

from unicon4 import chording

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "unicon4"


def test_no_assert_guards_in_src():
    # python -O strips assert statements, so a check that guards a result
    # must be an explicit raise
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}"
             for path in paths
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def _string_popcounts(tree):
    """Line numbers of bin(x).count("1") calls, which int.bit_count() replaces."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count" and isinstance(node.func.value, ast.Call)
            and _callee(node.func.value) == "bin"]


def test_popcounts_use_bit_count():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _string_popcounts(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_popcount_finder_sees_the_pattern():
    tree = ast.parse("a = bin(x).count('1')\nb = bin(x & y).count(\"1\")\n"
                     "c = x.bit_count()\nd = s.count('1')\n")
    assert _string_popcounts(tree) == [1, 2]


# typing and dataclasses import inspect, ast, dis and tokenize, some 11 ms of
# every CLI start; the records are named tuples and the annotations use
# builtin generics, collections.abc and X | None
SLOW_IMPORTS = {"typing", "dataclasses"}


def _slow_imports(tree):
    """Line numbers of the imports of a SLOW_IMPORTS module, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] in SLOW_IMPORTS for name in names):
            found.append(node.lineno)
    return sorted(found)


def test_src_imports_neither_typing_nor_dataclasses():
    found = [f"{path.name}:{line}"
             for path in sorted(SRC.glob("*.py"))
             for line in _slow_imports(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_slow_import_finder_sees_each_form():
    tree = ast.parse("import typing\nfrom dataclasses import dataclass, field\n"
                     "import os, typing as t\ndef f():\n    from typing import List\n"
                     "import typing_extensions\nfrom . import typing\nfrom collections.abc import Sequence\n"
                     "import dataclasses.x\n")
    assert _slow_imports(tree) == [1, 2, 3, 5, 9]


def test_cli_runs_without_typing_dataclasses_or_inspect(tmp_path):
    # a fresh interpreter, as the unicon4 entry point starts one, that then
    # runs every kind of command, so that no module loads them later either;
    # argparse, and gettext with it, is imported only to build the full
    # parser, and only its gettext lookups load locale, so they show that
    # no parser was built for these well-formed lines
    code = ("import contextlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import unicon4.cli\n"
            "slow = ('typing', 'dataclasses', 'inspect', 'locale', 'argparse', 'gettext')\n"
            "print([m for m in slow if m in sys.modules])\n"
            "g, trace = sys.argv[2] + '/g.g6', sys.argv[2] + '/trace.json'\n"
            "with open(g, 'w') as fh:\n"
            "    fh.write(unicon4.format_graph6(unicon4.oracle_graphs(7)[0]) + '\\n')\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    codes = [unicon4.cli.main(argv) for argv in (\n"
            "        ['analyze', g], ['removable', g], ['decompose', g, '-o', trace], ['replay', trace],\n"
            "        ['gen', '--max-n', '6'], ['verify', '--max-n', '6'])]\n"
            "print(codes, [m for m in slow if m in sys.modules])\n")
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(SRC.parent), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "[0, 0, 0, 0, 0, 0] []"]


def _defined(module):
    """The functions and classes that module defines, with each class's methods."""
    out = []
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if isinstance(obj, type):
            out.append(obj)
            for attr in vars(obj).values():
                attr = getattr(attr, "__func__", attr)  # classmethod, staticmethod
                if callable(attr) and getattr(attr, "__module__", None) == module.__name__:
                    out.append(attr)
        elif callable(obj):
            out.append(obj)
    return out


def test_annotations_resolve():
    # every annotation is a string (from __future__ import annotations), so a
    # name left undefined by an import change would only fail when read
    checked = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"unicon4.{path.stem}".removesuffix(".__init__"))
        for obj in _defined(module):
            typing.get_type_hints(obj)
            checked += 1
        # nested functions and annotated locals, which no object reaches
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                notes = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs
                         + [args.vararg, args.kwarg] if a is not None] + [node.returns]
            elif isinstance(node, ast.AnnAssign):
                notes = [node.annotation]
            else:
                continue
            for note in notes:
                if note is not None:
                    eval(compile(ast.Expression(note), path.name, "eval"), vars(module))
    assert checked > 100


# the module-level caches of the package; performance work moves caches out
# into explicit state, never in, so this set may only shrink
MODULE_CACHES = {"_verdicts", "_fan_levels", "_simple_paths"}
CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque",
              "WeakKeyDictionary", "WeakValueDictionary"}


def _callee(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _starts_empty(value):
    if isinstance(value, ast.Dict):
        return not value.keys
    if isinstance(value, (ast.List, ast.Set)):
        return not value.elts
    return isinstance(value, ast.Call) and _callee(value) in CONTAINERS


def _module_state(tree):
    """Names of module-level containers that start empty, of functions
    wrapped in a memoizing decorator, and of names declared global."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and _starts_empty(node.value):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and node.value is not None and _starts_empty(node.value):
            names.add(node.target.id)
        elif isinstance(node, ast.FunctionDef) and any(
                _callee(d) in ("lru_cache", "cache") for d in node.decorator_list):
            names.add(node.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            names.update(node.names)
    return names


def test_module_caches_are_the_known_set():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _module_state(ast.parse(path.read_text(encoding="utf-8")))
    assert found == MODULE_CACHES


def test_module_state_finder_sees_each_form():
    tree = ast.parse(
        "import functools\n"
        "_a = {}\n_b: dict = {}\n_c = []\n_d = collections.defaultdict(list)\n"
        "TABLE = {'x': 1}\nLIMIT = 16\n"
        "@functools.lru_cache(maxsize=8)\ndef _e(x):\n    return x\n"
        "@cache\ndef _f(x):\n    return x\n"
        "def g():\n    global _h\n    _h = 1\n")
    assert _module_state(tree) == {"_a", "_b", "_c", "_d", "_e", "_f", "_h"}


# outside connectivity, a flow runs only where the paths themselves are
# needed; a count of paths asks connectivity._local_conn.  May only shrink.
FLOW_CALLERS = {"chording._witness", "chording.find_quasi_chord"}


# both removability forms are read off capped counts across the removed
# edge: no global connectivity test of the reduced graph, no flow for the
# paths themselves and no component search over 3-sets
REMOVABILITY_AVOIDS = {
    "transform._removable": ("is_k_connected", "_kappa"),
    "transform._separated": ("_flow_paths", "_components"),
}


def test_removability_counts_across_the_edge():
    tree = ast.parse((SRC / "transform.py").read_text(encoding="utf-8"))
    for name, callees in REMOVABILITY_AVOIDS.items():
        assert name in _flow_callers(tree, "transform", "_local_conn"), name
        for callee in callees:
            assert name not in _flow_callers(tree, "transform", callee), (name, callee)


# inside connectivity, counts go through the kernel _local_conn alone, and
# only disjoint_path_fan flows for the paths themselves.  May only shrink.
KERNEL_CALLERS = {
    "_flow_paths": {"connectivity._local_conn", "connectivity.disjoint_path_fan"},
    "_greedy_paths": {"connectivity._local_conn"},
}


def _flow_callers(tree, module, callee="_flow_paths"):
    """module.f for each top-level function f that calls callee."""
    return {f"{module}.{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and _callee(c) == callee for c in ast.walk(node))}


def test_only_path_consumers_run_flows():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "connectivity":
            found |= _flow_callers(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == FLOW_CALLERS


def test_connectivity_counts_only_in_its_kernel():
    tree = ast.parse((SRC / "connectivity.py").read_text(encoding="utf-8"))
    for callee, callers in KERNEL_CALLERS.items():
        assert _flow_callers(tree, "connectivity", callee) == callers, callee


# the defining clauses are checked only where a spec comes from outside:
# a trace step, generation's enumeration and the public validators.  A
# decompose candidate meets them by construction (_parent_candidates).
# May only shrink.
CLAUSE_CALLERS = {"construct.replay", "construct.generate_catalog", "transform._validated"}


def test_clauses_are_checked_only_on_outside_specs():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _flow_callers(ast.parse(path.read_text(encoding="utf-8")), path.stem, "_clauses")
    assert found == CLAUSE_CALLERS


# the canonical search is built in one helper, which returns the labeling
# and the recorded automorphisms; every labeling, automorphism group and
# census generator set reads them from there.  May only shrink.
CANON_SEARCH_CALLERS = {"graph_core._canonical_search"}


def test_canonical_search_is_built_in_one_helper():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _flow_callers(ast.parse(path.read_text(encoding="utf-8")), path.stem, "_CanonSearch")
    assert found == CANON_SEARCH_CALLERS


# a class is labeled with its generators only where the census grows a
# level and where generation meets an output, so no second labeling path
# into the census can come back.  May only shrink.
LABELED_CALLERS = {"construct._grow", "construct.generate_catalog"}


def test_classes_are_labeled_in_two_places():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _flow_callers(ast.parse(path.read_text(encoding="utf-8")), path.stem, "_labeled")
    assert found == LABELED_CALLERS


# a class's automorphism group is closed from the generators that the search
# labeling it recorded, so no module calls automorphism_group, which would
# search the class a second time; it is public API only.  May only shrink.
GROUP_CALLERS = {
    "automorphism_group": set(),
    "_group": {"graph_core.automorphism_group", "construct.generate_catalog"},
}


def test_groups_are_closed_from_recorded_generators():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    for callee, callers in GROUP_CALLERS.items():
        found = set().union(*(_flow_callers(tree, module, callee) for module, tree in trees.items()))
        assert found == callers, callee


# every path enumeration goes through the one sweep, and only the one
# truncation test asks for the path-count bound, so no enumeration site
# can skip the per-sweep test.  May only shrink.
SWEEP_CALLERS = {
    "_simple_paths": {"chording._sweep"},
    "_paths_in_order": {"chording._sweep"},
    "_path_bound": {"chording._can_truncate"},
}


def test_paths_are_enumerated_only_by_the_sweep():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    for callee, callers in SWEEP_CALLERS.items():
        found = set().union(*(_flow_callers(tree, module, callee) for module, tree in trees.items()))
        assert found == callers, callee


# one loop asks whether some pair has five internally disjoint paths, and it
# serves the uniformity test, the census and decompose's screen; construct
# counts no disjoint paths of its own.  May only shrink.
PAIR_BOUND_CALLERS = {"connectivity.is_uniformly_4_connected", "construct._children",
                      "construct._meets_uniform_bounds"}
PATH_COUNTERS = ("_local_conn", "_flow_paths", "_greedy_paths", "local_connectivity",
                 "disjoint_path_fan")


def test_pairs_are_bounded_by_one_loop():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    found = set().union(*(_flow_callers(tree, module, "_pair_above_4") for module, tree in trees.items()))
    assert found == PAIR_BOUND_CALLERS
    counts = set().union(*(_flow_callers(trees["construct"], "construct", c) for c in PATH_COUNTERS))
    assert counts == set()


# global connectivity reads the Esfahanian-Hakimi probe pairs in one loop,
# and every cut sweep runs at the connectivity itself: minimum cuts, ends
# and the uniformity witness, whose cut is the first of size kappa.  So no
# second probe loop and no sweep below kappa can come back.  May only shrink.
CUT_CALLERS = {
    "_probe_pairs": {"connectivity._kappa"},
    "_cuts_of_size": {"connectivity.minimum_cuts", "connectivity._ends", "connectivity._witness"},
}


def test_cuts_are_swept_at_kappa():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    for callee, callers in CUT_CALLERS.items():
        found = set().union(*(_flow_callers(tree, module, callee) for module, tree in trees.items()))
        assert found == callers, callee


def test_flow_caller_finder_sees_a_private_count():
    tree = ast.parse(
        "def _levels(adj, p, alive):\n"
        "    return [len(_flow_paths(adj, a, b, 3, alive, None)) for a, b in p]\n"
        "def outer():\n    def inner():\n        return connectivity._flow_paths(1)\n    return inner\n"
        "def asks():\n    return _local_conn(1)\n")
    assert _flow_callers(tree, "m") == {"m._levels", "m.outer"}
    assert _flow_callers(tree, "m", "_local_conn") == {"m.asks"}


# every graph derived from another is built from adjacency rows
# (graph_core._form_from, Graph._of); an edge list is built into a Graph
# only where the edges are the input: the fixtures and the two parsers.
# May only shrink.
EDGE_LIST_BUILDERS = {"graph_core.complete_graph", "graph_core.cycle_graph",
                      "graph_core.square_of_cycle", "graph_core.parse_graph6",
                      "graph_core.parse_edge_list"}


def _edge_list_builders(tree, module):
    """module.f for each top-level function f that calls Graph with an
    edge argument; Graph(n) alone builds no edge list."""
    return {f"{module}.{node.name}" for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and _callee(c) == "Graph"
                    and len(c.args) + len(c.keywords) > 1 for c in ast.walk(node))}


def test_derived_graphs_are_built_from_rows():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        found |= _edge_list_builders(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert found == EDGE_LIST_BUILDERS


def test_edge_list_builder_finder_sees_each_form():
    tree = ast.parse(
        "def _pairs(n):\n    return Graph(n, [(0, 1)])\n"
        "def _named(n, e):\n    return graph_core.Graph(n, edges=e)\n"
        "def _nested(n):\n    def inner():\n        return Graph(n, ())\n    return inner\n"
        "def _single():\n    return Graph(1)\n"
        "def _rows(adj):\n    return Graph._of(adj)\n")
    assert _edge_list_builders(tree, "m") == {"m._pairs", "m._named", "m._nested"}


# the CLI touches files only through _read and _write, which turn every
# failure into an input error; a new command must not open a file itself
FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _calling(tree, callees):
    """Names of the top-level definitions that call one of callees, and
    "<module>" for a call outside them."""
    return {getattr(node, "name", "<module>") for node in tree.body
            if any(isinstance(c, ast.Call) and _callee(c) in callees for c in ast.walk(node))}


def test_cli_opens_files_only_in_read_and_write():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    assert _calling(tree, FILE_CALLS) == {"_read", "_write"}


def test_file_opener_finder_sees_each_form():
    tree = ast.parse(
        "def _read(p):\n    with open(p) as fh:\n        return fh.read()\n"
        "def _cmd(args):\n    def inner():\n        return io.open(args.path)\n    return inner\n"
        "def _dump(path, text):\n    path.write_text(text)\n"
        "def _quiet(args):\n    return _read(args.path)\n"
        "LOG = open('log.txt', 'w')\n")
    assert _calling(tree, FILE_CALLS) == {"_read", "_cmd", "_dump", "<module>"}


# every command's arguments are declared once, as the rows of cli._COMMANDS;
# the parser is built from them in one place, and the line reader reads them
def test_arguments_are_added_only_by_the_parser_builder():
    found = {f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for name in _calling(ast.parse(path.read_text(encoding="utf-8")), {"add_argument"})}
    assert found == {"cli._build_parser"}


def test_bench_tracer_names_resolve(monkeypatch):
    # the benchmark's tracer wraps functions and reads caches by name, and
    # the bench suite is not part of this one; a rename must fail here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{mod}.{fn}" for mod, fns in spans.GROUPS.values() for fn in fns
               if not callable(getattr(importlib.import_module(f"unicon4.{mod}"), fn, None))]
    assert missing == []
    assert set(spans.OUTCOME) <= set(spans.GROUP_OF)
    metrics = spans.cache_metrics(chording)
    assert metrics["chording.verdicts.size"] == len(chording._verdicts)
