import hashlib
import json

import pytest

from unicon4 import (__version__, add_edges, canonical_cert, complete_graph, format_edge_list,
                     format_graph6, k6_minus_edge, octahedron, octahedron_plus, parse_edge_list,
                     parse_graph6, square_of_cycle, trace_to_json)
from unicon4 import chording, cli, connectivity, transform
from unicon4.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in (("c6sq", octahedron()), ("k6", complete_graph(6)),
                    ("k7", complete_graph(7)), ("c5sq", square_of_cycle(5)),
                    ("k6e", k6_minus_edge())):
        p = tmp_path / f"{name}.g6"
        p.write_text(format_graph6(g) + "\n")
        paths[name] = str(p)
    e = tmp_path / "c6sq.edges"
    e.write_text(format_edge_list(octahedron()))
    paths["c6sq_edges"] = str(e)
    bad = tmp_path / "bad.g6"
    bad.write_text("D~")
    paths["bad"] = str(bad)
    paths["dir"] = tmp_path
    return paths


class TestAnalyze:
    def test_uniform_graph_exits_zero(self, capsys, files):
        code, doc = run(capsys, "analyze", files["c6sq"])
        assert code == 0
        assert doc["uniform4"] is True and doc["kappa"] == 4
        assert doc["local_min"] == doc["local_max"] == 4
        assert doc["schema"] == "unicon4.report/v1"

    def test_k6_is_verdict_false_with_fan(self, capsys, files):
        code, doc = run(capsys, "analyze", files["k6"])
        assert code == 1
        assert doc["uniform4"] is False
        assert doc["witness"]["kind"] == "five_fan" and len(doc["witness"]["paths"]) == 5

    def test_malformed_input_exit_2(self, capsys, files):
        code, doc = run(capsys, "analyze", files["bad"])
        assert code == 2 and "error" in doc

    def test_edge_list_autodetect(self, capsys, files):
        code, doc = run(capsys, "analyze", files["c6sq_edges"])
        assert code == 0 and doc["n"] == 6

    def test_human_output(self, capsys, files):
        code = main(["analyze", files["c6sq"], "--human"])
        out = capsys.readouterr().out
        assert code == 0 and "uniform4: True" in out


class TestRemovable:
    def test_base_graph_has_none(self, capsys, files):
        code, doc = run(capsys, "removable", files["c5sq"])
        assert code == 0 and doc["removable_count"] == 0

    def test_k7_all_edges(self, capsys, files):
        code, doc = run(capsys, "removable", files["k7"])
        assert code == 0 and doc["removable_count"] == 21
        assert all(r["removable"] and r["structural"] for r in doc["edges"])

    def test_not_4_connected_rejected(self, capsys, files, tmp_path):
        p = tmp_path / "path.edges"
        p.write_text("n 3\n0 1\n1 2\n")
        code, doc = run(capsys, "removable", str(p))
        assert code == 2
        assert doc["message"] == "removability is defined on 4-connected graphs"

    def test_input_is_checked_once(self, capsys, monkeypatch, tmp_path):
        # one 4-connectivity check of the input covers every edge; the
        # reduced graphs are still checked one by one
        g = square_of_cycle(16)
        p = tmp_path / "c16sq.g6"
        p.write_text(format_graph6(g) + "\n")
        original = connectivity.is_k_connected
        on_input = []

        def counting(h, k):
            on_input.append(h == g)
            return original(h, k)

        for module in (cli, connectivity, transform):
            if getattr(module, "is_k_connected", None) is original:
                monkeypatch.setattr(module, "is_k_connected", counting)
        code = main(["removable", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        assert sum(on_input) == 1 and len(on_input) == 1 + 32
        # the report itself is unchanged, byte for byte
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "fbbc6d51b52984a7f88553c9bc2ce5d7d1a0bda7870fcbdbae5e5a70a3d90544")

    def test_plus_edge_report_is_pinned(self, capsys, tmp_path):
        # C12^2 plus a chord: 4-connected, not uniformly, with edges of both
        # answers; the report is byte for byte the exhaustive sweep's
        p = tmp_path / "c12sq_plus.g6"
        p.write_text(format_graph6(add_edges(square_of_cycle(12), [(0, 6)])) + "\n")
        code = main(["removable", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2da1960345807416a5ca7178110a00b70a0b1fae8069a0ebff24e58655456822")


class TestReduce:
    def test_k6_minus_edge(self, capsys, files):
        code, doc = run(capsys, "reduce", files["k6"], "--edge", "0,1")
        assert code == 0
        assert parse_graph6(doc["result_graph6"]) == k6_minus_edge()
        assert doc["id_map"] == {str(i): i for i in range(6)}

    def test_absent_edge(self, capsys, files):
        code, doc = run(capsys, "reduce", files["c6sq"], "--edge", "0,3")
        assert code == 2


class TestApply:
    def test_delta1_with_compat_check(self, capsys, files):
        code, doc = run(capsys, "apply", files["c6sq"], "--op", "delta1",
                        "--x", "0,1,3", "--y", "4", "--ex", "0-1", "--check-compat")
        assert code == 0 and doc["compatible"] is True
        out = parse_graph6(doc["result_graph6"])
        assert out.n == 7
        from unicon4 import is_uniformly_4_connected
        assert is_uniformly_4_connected(out)[0]

    def test_incompatible_spec_exit_1(self, capsys, files):
        code, doc = run(capsys, "apply", files["k6"], "--op", "delta1",
                        "--x", "0,1,2", "--y", "4", "--ex", "0-1", "--check-compat")
        assert code == 1 and doc["compatible"] is False
        assert doc["violation"]["predicate"] in ("quasi_3cc", "quasi_chord", "e_plus_quasi_3cc")

    def test_invalid_spec_exit_2_names_clause(self, capsys, files):
        code, doc = run(capsys, "apply", files["c6sq"], "--op", "delta1",
                        "--x", "0,1,3", "--y", "4", "--ex", "0-3")
        assert code == 2 and "ex-" in doc["message"]

    def test_invalid_spec_is_rejected_before_compat(self, capsys, tmp_path):
        # reduced-kappa-3 fails; no compatibility verdict may be given first
        p = tmp_path / "octplus.g6"
        p.write_text(format_graph6(octahedron_plus()) + "\n")
        argv = ["apply", str(p), "--op", "delta1", "--x", "0,1,2", "--y", "3", "--ex", "0-1,1-2"]
        for extra in ([], ["--check-compat"]):
            code, doc = run(capsys, *argv, *extra)
            assert code == 2 and "compatible" not in doc
            assert doc["message"].startswith("reduced-kappa-3:")

    def test_delta2(self, capsys, files):
        code, doc = run(capsys, "apply", files["c6sq"], "--op", "delta2",
                        "--x", "0,1,2", "--yset", "3,4,5", "--ex", "0-2", "--ey", "3-5")
        assert code == 0
        assert parse_graph6(doc["result_graph6"]).n == 8

    def test_budget_exceeded_exit_3(self, capsys, files):
        chording.clear_caches()
        code, doc = run(capsys, "apply", files["c6sq"], "--op", "delta1",
                        "--x", "0,1,2", "--y", "4", "--ex", "0-2",
                        "--check-compat", "--max-paths", "1")
        chording.clear_caches()
        assert code == 3 and doc["error"] == "budget-exceeded"


class TestDecomposeReplay:
    def test_round_trip_via_files(self, capsys, files, tmp_path):
        from unicon4 import construct, format_graph6 as fg
        g = construct.oracle_graphs(7)[0]
        src = tmp_path / "g.g6"
        src.write_text(fg(g) + "\n")
        trace_file = tmp_path / "trace.json"
        code, doc = run(capsys, "decompose", str(src), "-o", str(trace_file))
        assert code == 0 and doc["uniform4"] and doc["written"] == str(trace_file)
        code, doc = run(capsys, "replay", str(trace_file))
        assert code == 0
        from unicon4.graph_core import are_isomorphic
        assert are_isomorphic(parse_graph6(doc["result_graph6"]), g)

    def test_non_uniform_input_exit_1(self, capsys, files):
        code, doc = run(capsys, "decompose", files["k6"])
        assert code == 1 and doc["uniform4"] is False

    def test_tampered_trace_exit_2(self, capsys, files, tmp_path):
        from unicon4 import construct, format_graph6 as fg
        g = construct.oracle_graphs(7)[0]
        src = tmp_path / "g.g6"
        src.write_text(fg(g) + "\n")
        trace_file = tmp_path / "trace.json"
        main(["decompose", str(src), "-o", str(trace_file)])
        capsys.readouterr()
        doc = json.loads(trace_file.read_text())
        doc["steps"][0]["post_cert"] = fg(complete_graph(7))
        trace_file.write_text(json.dumps(doc))
        code, out = run(capsys, "replay", str(trace_file))
        assert code == 2 and out["error"] in ("CertMismatch", "StepInvalid")

    def test_result_cert_is_the_checked_last_step_cert(self, capsys, monkeypatch, tmp_path):
        from unicon4 import construct
        g = construct.oracle_graphs(7)[0]
        src = tmp_path / "g.g6"
        src.write_text(format_graph6(g) + "\n")
        trace_file = tmp_path / "trace.json"
        main(["decompose", str(src), "-o", str(trace_file)])
        capsys.readouterr()
        certs = []
        monkeypatch.setattr(cli, "canonical_cert", lambda h: certs.append(h) or canonical_cert(h))
        code, doc = run(capsys, "replay", str(trace_file))
        assert code == 0 and certs == []
        assert doc["result_cert"] == canonical_cert(g).decode("ascii")
        # a trace with no steps has no step certificate to reuse
        trace_file.write_text(trace_to_json(construct.ConstructionTrace("C6SQ", ())))
        code, doc = run(capsys, "replay", str(trace_file))
        assert code == 0 and len(certs) == 1
        assert doc["result_cert"] == canonical_cert(octahedron()).decode("ascii")


class TestGenVerify:
    def test_gen_max_n_6(self, capsys):
        code, doc = run(capsys, "gen", "--max-n", "6")
        assert code == 0
        assert doc["counts_by_n"] == {"5": 1, "6": 1}
        assert doc["complete"] is True

    def test_verify_max_n_6(self, capsys):
        code, doc = run(capsys, "verify", "--max-n", "6")
        assert code == 0 and doc["holds"] is True and doc["complete"] is True
        assert doc["oracle_counts"] == doc["generated_counts"] == {"5": 1, "6": 1}
        assert all(doc["decompose_ok"].values())

    @pytest.mark.parametrize("max_n, max_paths", [("6", "1"), ("7", "3")])
    def test_verify_cut_short_is_unresolved(self, capsys, max_n, max_paths):
        # gen reports the same budget as incomplete; verify must not turn
        # it into a verdict either way
        _, gen = run(capsys, "gen", "--max-n", max_n, "--max-paths", max_paths)
        code, doc = run(capsys, "verify", "--max-n", max_n, "--max-paths", max_paths)
        assert gen["complete"] is False
        assert code == 3 and doc["complete"] is False and doc["holds"] is False


class TestConvert:
    def test_g6_to_edges_round_trip(self, capsys, files):
        code, doc = run(capsys, "convert", files["c6sq"], "--to", "edges")
        assert code == 0
        assert parse_edge_list(doc["output"]) == octahedron()

    def test_edges_to_g6(self, capsys, files):
        code, doc = run(capsys, "convert", files["c6sq_edges"], "--to", "g6")
        assert parse_graph6(doc["output"]) == octahedron()

    def test_dot(self, capsys, files):
        code, doc = run(capsys, "convert", files["c5sq"], "--to", "dot")
        assert code == 0 and doc["output"].count("--") == 10

    def test_written_file(self, capsys, files, tmp_path):
        out = tmp_path / "out.edges"
        code, doc = run(capsys, "convert", files["c6sq"], "--to", "edges", "-o", str(out))
        assert code == 0 and parse_edge_list(out.read_text()) == octahedron()


class TestOutputContract:
    def test_all_reports_carry_schema_and_parse_back(self, capsys, files):
        for argv in (["analyze", files["c6sq"]],
                     ["removable", files["c5sq"]],
                     ["reduce", files["k6"], "--edge", "0,1"],
                     ["convert", files["c6sq"], "--to", "g6"],
                     ["gen", "--max-n", "5"]):
            code = main(argv)
            doc = json.loads(capsys.readouterr().out)
            assert doc["schema"] == "unicon4.report/v1"
            assert doc["command"] == argv[0]


# a minimal command line per subcommand; argparse never opens the files
ARGV = {
    "analyze": ["analyze", "g.g6"],
    "removable": ["removable", "g.g6"],
    "reduce": ["reduce", "g.g6", "--edge", "0,1"],
    "apply": ["apply", "g.g6", "--op", "delta1", "--x", "0,1,2", "--y", "3", "--ex", "0-1"],
    "decompose": ["decompose", "g.g6"],
    "replay": ["replay", "t.json"],
    "gen": ["gen", "--max-n", "5"],
    "verify": ["verify", "--max-n", "5"],
    "convert": ["convert", "g.g6", "--to", "g6"],
}
PATH_SWEEPS = {"apply", "replay", "gen", "verify"}


class TestBudgetFlags:
    def test_every_subcommand_is_listed(self):
        assert set(ARGV) == set(cli._HANDLERS)

    @pytest.mark.parametrize("cmd", sorted(PATH_SWEEPS))
    def test_path_sweeps_take_the_budget(self, cmd):
        args = cli._build_parser().parse_args(ARGV[cmd] + ["--max-paths", "7", "--max-len", "4"])
        assert (args.max_paths, args.max_len) == (7, 4)

    @pytest.mark.parametrize("cmd", sorted(set(ARGV) - PATH_SWEEPS))
    @pytest.mark.parametrize("flag", ["--max-paths", "--max-len"])
    def test_other_commands_reject_it(self, cmd, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli._build_parser().parse_args(ARGV[cmd] + [flag, "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _outcome(capsys, call):
    """(exit code, stdout, stderr) of a call that may end in SystemExit."""
    try:
        code = call()
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


class TestParserBuild:
    # main builds only the named command's sub-parser; it must parse and
    # report exactly as the full parser does

    @pytest.mark.parametrize("cmd", sorted(ARGV))
    def test_one_sub_parser_gives_the_same_namespace(self, cmd):
        assert cli._build_parser(cmd).parse_args(ARGV[cmd]) == cli._build_parser().parse_args(ARGV[cmd])

    @pytest.mark.parametrize("argv", [["-h"], ["analyze", "-h"], ["apply"], ["nosuch"], [],
                                      ["--version"], ["analyze", "g.g6", "extra"],
                                      ["replay", "t.json", "--max-paths", "x"]],
                             ids=str)
    def test_main_reports_as_the_full_parser(self, argv, capsys):
        got = _outcome(capsys, lambda: main(list(argv)))
        want = _outcome(capsys, lambda: cli._build_parser().parse_args(list(argv)))
        assert got == want
        assert got[0] in (0, 2)

    def test_argv_defaults_to_the_process_arguments(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["unicon4", "--version"])
        assert _outcome(capsys, main) == (0, f"unicon4 {__version__}\n", "")
