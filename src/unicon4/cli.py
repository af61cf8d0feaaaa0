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


# one row per argument, in the order argparse is given them:
# (option strings, dest, kind, default, choices, required, help); kind is
# one of the four below, and a positional row has no option strings
POSITIONAL, STR, INT, FLAG = "positional", "str", "int", "flag"

_PATH = (
    ((), "path", POSITIONAL, None, None, False, None),
    (("--format",), "format", STR, None, ("g6", "edges"), False,
     "input format; default: by file extension"),
)
_HUMAN = ((("--human",), "human", FLAG, False, None, False, "plain-text output"),)
# only the commands that sweep simple paths take a budget
_BUDGET = (
    (("--max-paths",), "max_paths", INT, DEFAULT_BUDGET.max_paths, None, False,
     "simple paths per vertex pair"),
    (("--max-len",), "max_len", INT, None, None, False, "vertices per path"),
)
_OUTPUT = ((("-o", "--output"), "output", STR, None, None, False, None),)
_MAX_N = ((("--max-n",), "max_n", INT, None, None, True, None),)

# name: (handler, help, its argument rows)
_COMMANDS = {
    "analyze": (_cmd_analyze, "connectivity report and uniform-4 verdict", _PATH + _HUMAN),
    "removable": (_cmd_removable, "removability of every edge", _PATH + _HUMAN),
    "reduce": (_cmd_reduce, "apply the edge reduction", _PATH + _HUMAN + (
        (("--edge",), "edge", STR, None, None, True, "U,V"),) + _OUTPUT),
    "apply": (_cmd_apply, "apply a delta expansion", _PATH + _HUMAN + _BUDGET + (
        (("--op",), "op", STR, None, ("delta1", "delta2"), True, None),
        (("--x",), "x", STR, None, None, True, "A,B,C"),
        (("--y",), "y", INT, None, None, False, "attachment vertex (delta1)"),
        (("--yset",), "yset", STR, None, None, False, "D,E,F (delta2)"),
        (("--ex",), "ex", STR, None, None, True, "U-V[,U-V...] edges removed inside --x"),
        (("--ey",), "ey", STR, "", None, False, "U-V[,U-V...] edges removed inside --yset"),
        (("--check-compat",), "check_compat", FLAG, False, None, False, None))),
    "decompose": (_cmd_decompose, "trace a construction from a base graph",
                  _PATH + _HUMAN + _OUTPUT),
    "replay": (_cmd_replay, "rebuild and validate a trace file", _HUMAN + _BUDGET + (
        ((), "trace", POSITIONAL, None, None, False, None),
        (("--skip-compat",), "skip_compat", FLAG, False, None, False,
         "skip the per-step compatibility re-check"))),
    "gen": (_cmd_gen, "generate all uniformly 4-connected graphs", _HUMAN + _BUDGET + _MAX_N),
    "verify": (_cmd_verify, "generation vs oracle vs decomposition", _HUMAN + _BUDGET + _MAX_N),
    "convert": (_cmd_convert, "convert between graph formats", _PATH + _HUMAN + (
        (("--to",), "to", STR, None, ("g6", "edges", "dot"), True, None),) + _OUTPUT),
}


def _build_parser() -> argparse.ArgumentParser:
    """The full parser, built from the argument rows: the reference for
    every line, and the one thing that prints usage, help and errors."""
    ap = argparse.ArgumentParser(prog="unicon4",
                                 description="uniformly 4-connected graph toolkit")
    ap.add_argument("--version", action="version", version=f"unicon4 {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (_, text, rows) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flags, dest, kind, default, choices, required, note in rows:
            if kind == POSITIONAL:
                p.add_argument(dest)
            elif kind == FLAG:
                p.add_argument(*flags, action="store_true", help=note)
            else:
                p.add_argument(*flags, type=int if kind == INT else None, default=default,
                               choices=choices, required=required, help=note)
    return ap


def _read_line(argv) -> argparse.Namespace | None:
    """The Namespace argparse gives a well-formed command line, read from
    the rows without building a parser; None for any other line.

    Well-formed: argv[0] names a command, and every other token is either
    exactly one of its option strings, used at most once, or a positional.
    A value follows each non-flag option, and neither a value nor a
    positional starts with "-".  The positional count is right, every
    required option is given, int values convert and choices hold.  So
    help, --version, abbreviations, --opt=value, "--", repeated options and
    every error are left to the full parser."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    rows = _COMMANDS[argv[0]][2]
    options = {flag: row for row in rows for flag in row[0]}
    values = {row[1]: row[3] for row in rows}
    seen, positionals = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        row = options.get(token)
        if row is None:
            if token.startswith("-"):
                return None
            positionals.append(token)
            continue
        _, dest, kind, _, choices, _, _ = row
        if dest in seen:
            return None
        seen.add(dest)
        if kind == FLAG:
            values[dest] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        if kind == INT:
            try:
                value = int(value)
            except ValueError:
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    dests = [row[1] for row in rows if row[2] == POSITIONAL]
    if len(positionals) != len(dests) or any(row[5] and row[1] not in seen for row in rows):
        return None
    values.update(zip(dests, positionals))
    return argparse.Namespace(cmd=argv[0], **values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_line(argv)
    if args is None:  # help, version, an error, or a form only argparse reads
        args = _build_parser().parse_args(argv)
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
