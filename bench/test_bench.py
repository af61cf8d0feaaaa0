"""Tests of the benchmark itself: run with  python3 -m pytest bench -q"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402

PINS = json.loads((HERE / "pins.json").read_text())


# -- self time -------------------------------------------------------------------


def span(parent, name, start, end, outcome=None):
    return spans.Span(parent, name, start, end, outcome)


def test_self_time_subtracts_direct_children_only():
    s = [span(-1, "construct.decompose", 0.0, 10.0),
         span(0, "connectivity.is_uniformly_4_connected", 1.0, 4.0),
         span(1, "connectivity.is_k_connected", 2.0, 3.0),
         span(0, "graph_core.canonical_cert", 5.0, 9.0)]
    assert spans.self_times(s) == [3.0, 2.0, 1.0, 4.0]
    assert sum(spans.self_times(s)) == 10.0  # self times partition the root span


def test_nested_calls_inside_one_group_count_once():
    s = [span(-1, "graph_core.canonical_cert", 0.0, 4.0),
         span(0, "graph_core.canonical_form", 0.5, 3.5),
         span(1, "graph_core.canonical_labeling", 1.0, 3.0),
         span(0, "graph_core.format_graph6", 3.5, 4.0)]
    m = spans.layer_metrics(s)
    assert m["graph_core.canonical.calls"] == 1
    assert m["graph_core.canonical.self_s"] == pytest.approx(3.5)
    assert m["graph_core.io.calls"] == 1 and m["graph_core.io.self_s"] == pytest.approx(0.5)


def test_outcome_ratios_and_rejections():
    raise_clause = ("raise", "ConnectivityTooLow", "reduced-kappa-3")
    s = [span(-1, "construct.generate_catalog", 0.0, 10.0),
         span(0, "transform.validate_delta", 1.0, 2.0, raise_clause),
         span(1, "transform.validate_delta1", 1.1, 1.9, raise_clause),
         span(0, "transform.validate_delta", 2.0, 3.0),
         span(0, "transform.is_quasi_4_compatible", 3.0, 4.0, "quasi_3cc"),
         span(4, "chording.exists_quasi_3cc_path", 3.1, 3.2, True),
         span(4, "chording.find_quasi_3cc_path", 3.2, 3.3),
         span(0, "transform.is_quasi_4_compatible", 4.0, 5.0, True),
         span(7, "chording.exists_quasi_3cc_path", 4.1, 4.2, False),
         span(0, "connectivity.is_uniformly_4_connected", 5.0, 6.0, True)]
    m = spans.layer_metrics(s)
    assert m["construct.generate.specs"] == 2
    assert m["transform.validate.calls"] == 2
    assert m["transform.validate.pass_frac"] == 0.5
    assert m["transform.validate.rejected.reduced-kappa-3"] == 1
    assert m["transform.validate.rejected.other"] == 0
    assert m["transform.compat.pass_frac"] == 0.5
    assert m["transform.compat.rejected.quasi_3cc"] == 1
    assert m["chording.exists.calls"] == 2 and m["chording.exists.true_frac"] == 0.5
    assert m["chording.exists.q3cc.calls"] == 2
    assert m["connectivity.uniform4.true_frac"] == 1.0
    assert m["construct.oracle.screened"] == 0


def test_decompose_useful_fraction_counts_candidates_after_the_input_check():
    s = [span(-1, "construct.decompose", 0.0, 10.0, 2)]
    s += [span(0, "connectivity.is_uniformly_4_connected", i, i + 0.5, True) for i in range(5)]
    assert spans.layer_metrics(s)["construct.decompose.useful_frac"] == 0.5  # 2 steps / 4 candidates


def test_tracer_rebinds_every_module_that_names_a_function():
    modules = {}
    for mod, fns in spans.GROUPS.values():
        stub = modules.setdefault(mod, types.ModuleType(mod))
        for fn in fns:
            setattr(stub, fn, lambda *a: None)
    core, user = modules["graph_core"], modules["construct"]
    exec("def canonical_cert(g):\n    return format_graph6(g)\n"
         "def format_graph6(g):\n    return 'x'\n", core.__dict__)
    user.canonical_cert = core.canonical_cert  # as "from .graph_core import canonical_cert"
    exec("def replay(g):\n    return canonical_cert(g)\n", user.__dict__)
    tracer = spans.Tracer(clock=iter(range(100)).__next__)
    tracer.install(modules)
    assert user.replay(None) == "x"
    assert [(s.parent, s.name) for s in tracer.spans] == [
        (-1, "construct.replay"), (0, "graph_core.canonical_cert"),
        (1, "graph_core.format_graph6")]
    assert [(s.start, s.end) for s in tracer.spans] == [(0, 5), (1, 4), (2, 3)]
    tracer.uninstall()
    assert user.canonical_cert is core.canonical_cert
    assert not hasattr(user.canonical_cert, "__wrapped__")


def test_exceptions_are_recorded_and_propagated():
    tracer = spans.Tracer()

    class Invalid(ValueError):
        clause = "end-coverage"

    def validate(_):
        raise Invalid("no")

    wrapped = tracer.wrap(validate, "transform.validate_delta")
    with pytest.raises(Invalid):
        wrapped(None)
    assert tracer.spans[0].outcome == ("raise", "Invalid", "end-coverage")
    assert tracer.current == -1


# -- percentiles -------------------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 0.9) == (90, 10)
    assert stats.percentile(values, 0.9) == 90
    assert stats.percentile(values[:99], 0.9) is None  # only 9 beyond rank 90
    assert stats.percentile(list(range(20)), 0.5) == 9
    assert stats.percentile(list(range(19)), 0.5) is None


# -- digests and pins --------------------------------------------------------------


def test_cert_digest_ignores_order_and_matches_sha256_of_sorted_lines():
    import hashlib
    assert stats.cert_digest(["b", "a"]) == stats.cert_digest(["a", "b"])
    assert stats.cert_digest(["b", "a"]) == hashlib.sha256(b"a\nb").hexdigest()
    assert stats.record_digest({"a": 1, "b": 2}) == stats.record_digest({"b": 2, "a": 1})
    assert stats.record_digest({"a": 1}) != stats.record_digest({"a": 2})


def test_pins_are_self_consistent():
    for table in ("census8", "closure8"):
        for entry in PINS[table].values():
            assert stats.cert_digest(entry["certs"]) == entry["sha256"]
            assert entry["count"] == len(entry["certs"])
    counts = lambda t: [PINS[t][str(n)]["count"] for n in range(5, 9)]  # noqa: E731
    assert counts("census8") == [1, 1, 4, 10]
    assert counts("closure8") == [1, 1, 4, 8]
    # the known n = 8 gap is an expected output, not a failure
    assert PINS["known_gap_n8"] == ["G?~vf_", "GJem^_"]
    assert set(PINS["census8"]["8"]["certs"]) - set(PINS["closure8"]["8"]["certs"]) == {"G?~vf_", "GJem^_"}
    assert set(PINS["closure8"]["8"]["certs"]) <= set(PINS["census8"]["8"]["certs"])


def test_pool_positives_are_4_regular_and_pinned_per_command():
    for n, entries in PINS["pool"].items():
        assert [e["kind"] for e in entries].count("square") == 1
        for e in entries:
            degree = [0] * int(n)
            for u, v in e["edges"]:
                degree[u] += 1
                degree[v] += 1
            assert set(degree) == {4}
            assert e["expect"]["analyze"] == 0 and e["expect"]["removable"] == 0
            assert e["expect"]["decompose"] in (0, 2)
            assert ("replay" in e["expect"]) == (e["expect"]["decompose"] == 0)


# -- corpus --------------------------------------------------------------------------


def test_graph6_writer_matches_the_program_reader():
    from unicon4 import parse_graph6
    for entries in PINS["pool"].values():
        e = entries[1]
        g = parse_graph6(corpus.format_graph6(len({v for ed in e["edges"] for v in ed}), e["edges"]))
        assert sorted(g.edges()) == sorted(tuple(x) for x in e["edges"])


def test_corpus_is_seeded_and_big_enough_for_p90():
    a = corpus.build(PINS["pool"], 7)
    assert a == corpus.build(PINS["pool"], 7)
    assert a != corpus.build(PINS["pool"], 8)
    negatives = [g for g in a if g["kind"] != "positive"]
    assert 0.2 <= len(negatives) / len(a) <= 0.3
    assert any(g["kind"] == "positive" and g["expect"]["decompose"] != 0 for g in a)
    assert sum(len(g["expect"]) for g in a) >= 100  # one CLI command per expected exit code
    assert {n for n in range(9, 17)} == {g["n"] for g in a}


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# -- host-speed probe ------------------------------------------------------------------


def test_speed_probe_samples_during_the_run_and_restores_the_signal_handler():
    import signal
    import time
    import child
    before = signal.getsignal(signal.SIGALRM)
    with child.SpeedProbe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(probe.times) >= 3  # about one per PROBE_PERIOD_S, plus one at exit
    assert probe.mean_s() > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with child.SpeedProbe() as quick:
        pass
    assert len(quick.times) == 1  # a workload shorter than the period still gets a sample
    quick.times = [1.0] * 18 + [0.0, 100.0]
    assert quick.mean_s() == 1.0  # one outlier in ten is trimmed at either end


# -- peak memory ----------------------------------------------------------------------


def test_peak_rss_is_the_childs_own_not_inherited_from_the_parent():
    ballast = bytearray(64 * 1024 * 1024)  # resident in the parent when the child forks
    ballast[::4096] = b"x" * len(ballast[::4096])
    code = "import child; print(child._peak_rss_kib())"
    out = subprocess.run([sys.executable, "-I", "-c", f"import sys; sys.path.insert(0, {str(HERE)!r}); {code}"],
                         capture_output=True, text=True, check=True, preexec_fn=lambda: None).stdout
    assert int(out) < 48 * 1024
    del ballast


# -- smoke mode: each workload once at reduced size --------------------------------------


def _run(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], capture_output=True,
                          text=True, timeout=600)
    return proc.returncode, proc.stdout


def test_smoke_run_checks_every_workload():
    code, out = _run("--workload", "all", "--smoke", "--seed", "3")
    results = json.loads(out.strip().splitlines()[-1])
    assert code == 0, out
    for name in run.WORKLOADS:
        r = results[name]
        assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
        assert set(r["metrics"]) == {k for k, _ in run.END_TO_END}


def test_smoke_trace_repeats_counts_exactly_and_matches_untraced_outputs():
    runs = []
    for _ in range(2):
        code, out = _run("--workload", "all", "--smoke", "--seed", "3", "--trace", "1")
        assert code == 0, out
        runs.append(json.loads(out.strip().splitlines()[-1]))
    for name in run.WORKLOADS:
        counts = [{k: v["value"] for k, v in r[name]["metrics"].items() if v["unit"] == "count"}
                  for r in runs]
        assert counts[0] == counts[1]
        assert set(runs[0][name]["metrics"]) == {k for k, _ in run.PER_LAYER}
