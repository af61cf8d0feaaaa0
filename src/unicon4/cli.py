"""Command-line surface.  Every command prints one JSON report (schema
unicon4.report/v1) to stdout, or a plain table with --human.

Exit codes: 0 success, 1 well-formed negative verdict (e.g. the graph is
not uniformly 4-connected), 2 input or parameter error, 3 search budget
exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .chording import DEFAULT_BUDGET, BudgetExceeded, SearchBudget
from .connectivity import CutWitness, connectivity_report, is_k_connected
from .construct import (CertMismatch, DecompositionError, NotUniform, StepInvalid,
                        TraceFormatError, decompose, generate_catalog, replay,
                        trace_from_json, trace_to_json, verify_theorem)
from .graph_core import (FormatError, Graph, GraphError, canonical_cert, format_edge_list,
                         format_graph6, parse_edge_list, parse_graph6, to_dot)
from .transform import (Delta1Spec, Delta2Spec, SpecInvalid, _attach, _removable, _separated,
                        _validated, is_quasi_4_compatible, reduce_edge)

SCHEMA = "unicon4.report/v1"

OK, VERDICT_FALSE, INPUT_ERROR, BUDGET = 0, 1, 2, 3


def _read(path: str) -> str:
    """The text of an input file; every file the commands read comes through here."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return fh.read()
    except (OSError, UnicodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from None


def _write(args, payload: dict, text: str) -> None:
    """Write text to the -o path, if one was given, and name it in the report."""
    if args.output:
        try:
            with open(args.output, "w", encoding="ascii") as fh:
                fh.write(text)
        except (OSError, UnicodeError) as exc:
            raise FormatError(f"cannot write {args.output}: {exc}") from None
        payload["written"] = args.output


def _load_graph(path: str, fmt: str | None) -> Graph:
    text = _read(path)
    if fmt is None:
        fmt = "g6" if path.endswith(".g6") else "edges"
    return parse_graph6(text) if fmt == "g6" else parse_edge_list(text)


def _emit(args, fields: dict) -> None:
    """Print one report: the command's own fields under the schema and
    command name that every report, success or error, carries."""
    payload = {"schema": SCHEMA, "command": args.cmd, **fields}
    if args.human:
        for line in _human_lines(payload):
            print(line)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _human_lines(payload: dict):
    yield f"[{payload.get('command')}]"
    for key in sorted(payload):
        if key in ("schema", "command"):
            continue
        val = payload[key]
        if isinstance(val, dict):
            yield f"{key}:"
            for k in sorted(val, key=str):
                yield f"  {k}: {val[k]}"
        elif isinstance(val, list):
            yield f"{key}:"
            for item in val:
                yield f"  - {item}"
        else:
            yield f"{key}: {val}"


def _budget(args) -> SearchBudget:
    return SearchBudget(max_paths=args.max_paths, max_len=args.max_len)


def _witness_dict(w):
    if w is None:
        return None
    if isinstance(w, CutWitness):
        return {"kind": "cut", "vertices": sorted(w.vertices)}
    return {"kind": "five_fan", "pair": list(w.pair), "paths": [list(p) for p in w.paths]}


def _parse_vertex_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t != "")
    except ValueError:
        raise FormatError(f"{what} must be a comma-separated vertex list, got {text!r}") from None


def _parse_edge_set(text: str, what: str):
    edges = []
    if not text:
        return edges
    for tok in text.split(","):
        parts = tok.split("-")
        if len(parts) != 2:
            raise FormatError(f"{what} entries look like U-V, got {tok!r}")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise FormatError(f"non-integer vertex in {tok!r}") from None
    return edges


# -- commands -----------------------------------------------------------------


def _cmd_analyze(args) -> tuple[dict, int]:
    g = _load_graph(args.path, args.format)
    if g.n < 2:  # no pair to connect: a verdict, as in decompose, not an input error
        return {"n": g.n, "m": 0, "kappa": None, "local_min": None, "local_max": None,
                "uniform4": False, "witness": None}, VERDICT_FALSE
    rep = connectivity_report(g)
    locs = [rep.local[u][v] for u in range(g.n) for v in range(u + 1, g.n)]
    payload = {
        "n": g.n, "m": g.edge_count,
        "kappa": rep.kappa,
        "local_min": min(locs) if locs else None,
        "local_max": max(locs) if locs else None,
        "uniform4": rep.uniform4,
        "witness": _witness_dict(rep.witness),
    }
    return payload, OK if rep.uniform4 else VERDICT_FALSE


def _cmd_removable(args) -> tuple[dict, int]:
    g = _load_graph(args.path, args.format)
    if g.n < 5 or not is_k_connected(g, 4):
        raise GraphError("removability is defined on 4-connected graphs")
    # the input is checked once here, so every edge goes to the helpers
    # that skip the public functions' per-call check
    rows = []
    for x, y in g.edges():
        rows.append({"edge": [x, y], "removable": _removable(g, x, y),
                     "structural": not _separated(g, x, y) if g.n >= 7 else None})
    payload = {"edges": rows, "removable_count": sum(r["removable"] for r in rows)}
    return payload, OK


def _cmd_reduce(args) -> tuple[dict, int]:
    g = _load_graph(args.path, args.format)
    e = _parse_vertex_list(args.edge, "--edge")
    if len(e) != 2:
        raise FormatError("--edge takes exactly two vertices, e.g. 0,1")
    h, idmap = reduce_edge(g, (e[0], e[1]))
    payload = {"edge": sorted(e), "result_graph6": format_graph6(h),
               "result_n": h.n, "id_map": {str(k): v for k, v in sorted(idmap.items())}}
    _write(args, payload, format_graph6(h) + "\n")
    return payload, OK


def _cmd_apply(args) -> tuple[dict, int]:
    g = _load_graph(args.path, args.format)
    xs = _parse_vertex_list(args.x, "--x")
    exs = _parse_edge_set(args.ex, "--ex")
    if args.op == "delta1":
        if args.y is None:
            raise FormatError("delta1 needs --y")
        spec = Delta1Spec(xs, args.y, exs)
    else:
        if not args.yset:
            raise FormatError("delta2 needs --yset")
        spec = Delta2Spec(xs, _parse_vertex_list(args.yset, "--yset"),
                          exs, _parse_edge_set(args.ey, "--ey"))
    reduced = _validated(g, spec)  # before any verdict: an invalid spec exits 2, naming its clause
    payload = {"op": args.op}
    if args.check_compat:
        rep = is_quasi_4_compatible(g, spec, _budget(args))
        payload["compatible"] = rep.compatible
        if not rep.compatible:
            v = rep.violation
            payload["violation"] = {"pair": list(v.pair), "predicate": v.predicate,
                                    "added_edge": list(v.added_edge) if v.added_edge else None,
                                    "path": list(v.path)}
            return payload, VERDICT_FALSE
    out = _attach(reduced, spec)
    payload["result_graph6"] = format_graph6(out)
    payload["result_n"] = out.n
    return payload, OK


def _cmd_decompose(args) -> tuple[dict, int]:
    g = _load_graph(args.path, args.format)
    try:
        trace = decompose(g)
    except NotUniform:
        return {"uniform4": False, "trace": None}, VERDICT_FALSE
    text = trace_to_json(trace)
    payload = {"uniform4": True, "base": trace.base, "steps": len(trace.steps),
               "trace": json.loads(text)}
    _write(args, payload, text + "\n")
    return payload, OK


def _cmd_replay(args) -> tuple[dict, int]:
    trace = trace_from_json(_read(args.trace))
    g = replay(trace, _budget(args), check_compat=not args.skip_compat)
    payload = {"base": trace.base, "steps": len(trace.steps),
               "result_graph6": format_graph6(g), "result_n": g.n,
               # replay checked each step's certificate against its output
               "result_cert": (trace.steps[-1].post_cert if trace.steps
                               else canonical_cert(g)).decode("ascii")}
    return payload, OK


def _cmd_gen(args) -> tuple[dict, int]:
    cat = generate_catalog(args.max_n, _budget(args))
    payload = {"max_n": args.max_n,
               "counts_by_n": {str(n): len(c) for n, c in sorted(cat.certs_by_n.items())},
               "certs_by_n": {str(n): sorted(c.decode("ascii") for c in certs)
                              for n, certs in sorted(cat.certs_by_n.items())},
               "complete": cat.complete}
    return payload, OK if cat.complete else BUDGET


def _cmd_verify(args) -> tuple[dict, int]:
    rep = verify_theorem(args.max_n, _budget(args))
    payload = {"max_n": args.max_n,
               "oracle_counts": {str(n): len(c) for n, c in sorted(rep.oracle_by_n.items())},
               "generated_counts": {str(n): len(c) for n, c in sorted(rep.generated_by_n.items())},
               "only_oracle": {str(n): sorted(c.decode("ascii") for c in certs)
                               for n, certs in sorted(rep.only_oracle.items())},
               "only_generated": {str(n): sorted(c.decode("ascii") for c in certs)
                                  for n, certs in sorted(rep.only_generated.items())},
               "decompose_ok": {c.decode("ascii"): ok for c, ok in sorted(rep.decompose_ok.items())},
               "soundness_failures": [list(map(str, f)) for f in rep.soundness_failures],
               "complete": rep.complete,
               "holds": rep.holds,
               "timings": {k: round(v, 3) for k, v in rep.timings.items()}}
    return payload, OK if rep.holds else (VERDICT_FALSE if rep.complete else BUDGET)


def _cmd_convert(args) -> tuple[dict, int]:
    g = _load_graph(args.path, args.format)
    if args.to == "g6":
        text = format_graph6(g) + "\n"
    elif args.to == "edges":
        text = format_edge_list(g)
    else:
        text = to_dot(g)
    payload = {"to": args.to, "output": text}
    _write(args, payload, text)
    return payload, OK


def _common(p, path: bool, budget: bool) -> None:
    if path:
        p.add_argument("path")
        p.add_argument("--format", choices=["g6", "edges"], default=None,
                       help="input format; default: by file extension")
    p.add_argument("--human", action="store_true", help="plain-text output")
    if budget:  # only the commands that sweep simple paths take one
        p.add_argument("--max-paths", type=int, default=DEFAULT_BUDGET.max_paths,
                       help="simple paths per vertex pair")
        p.add_argument("--max-len", type=int, default=None, help="vertices per path")


def _output(p) -> None:
    p.add_argument("-o", "--output", default=None)


def _reduce_args(p) -> None:
    p.add_argument("--edge", required=True, help="U,V")
    _output(p)


def _apply_args(p) -> None:
    p.add_argument("--op", required=True, choices=["delta1", "delta2"])
    p.add_argument("--x", required=True, help="A,B,C")
    p.add_argument("--y", type=int, default=None, help="attachment vertex (delta1)")
    p.add_argument("--yset", default=None, help="D,E,F (delta2)")
    p.add_argument("--ex", required=True, help="U-V[,U-V...] edges removed inside --x")
    p.add_argument("--ey", default="", help="U-V[,U-V...] edges removed inside --yset")
    p.add_argument("--check-compat", action="store_true")


def _replay_args(p) -> None:
    p.add_argument("trace")
    p.add_argument("--skip-compat", action="store_true",
                   help="skip the per-step compatibility re-check")


def _max_n(p) -> None:
    p.add_argument("--max-n", type=int, required=True)


def _convert_args(p) -> None:
    p.add_argument("--to", required=True, choices=["g6", "edges", "dot"])
    _output(p)


# name: (handler, help, takes a graph path, takes a path budget, its own arguments)
_COMMANDS = {
    "analyze": (_cmd_analyze, "connectivity report and uniform-4 verdict", True, False, None),
    "removable": (_cmd_removable, "removability of every edge", True, False, None),
    "reduce": (_cmd_reduce, "apply the edge reduction", True, False, _reduce_args),
    "apply": (_cmd_apply, "apply a delta expansion", True, True, _apply_args),
    "decompose": (_cmd_decompose, "trace a construction from a base graph", True, False, _output),
    "replay": (_cmd_replay, "rebuild and validate a trace file", False, True, _replay_args),
    "gen": (_cmd_gen, "generate all uniformly 4-connected graphs", False, True, _max_n),
    "verify": (_cmd_verify, "generation vs oracle vs decomposition", False, True, _max_n),
    "convert": (_cmd_convert, "convert between graph formats", True, False, _convert_args),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The full parser, or with `only` a parser holding just that command's
    sub-parser, which parses that command's lines the same way."""
    ap = argparse.ArgumentParser(prog="unicon4",
                                 description="uniformly 4-connected graph toolkit")
    ap.add_argument("--version", action="version", version=f"unicon4 {__version__}")
    # the full choice list as metavar keeps the usage line of an error such
    # as "unrecognized arguments" the same when one sub-parser is built
    sub = ap.add_subparsers(dest="cmd", required=True,
                            metavar="{" + ",".join(_COMMANDS) + "}" if only else None)
    for name, (_, text, path, budget, extra) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=text)
            _common(p, path, budget)
            if extra is not None:
                extra(p)
    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command line that names its command needs only that sub-parser
    args = _build_parser(argv[0] if argv and argv[0] in _COMMANDS else None).parse_args(argv)
    try:
        payload, code = _COMMANDS[args.cmd][0](args)
    except BudgetExceeded as exc:
        _emit(args, {"error": "budget-exceeded", "message": str(exc)})
        return BUDGET
    except (FormatError, TraceFormatError, SpecInvalid, StepInvalid, CertMismatch,
            DecompositionError, GraphError) as exc:
        _emit(args, {"error": type(exc).__name__, "message": str(exc)})
        return INPUT_ERROR
    _emit(args, payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
