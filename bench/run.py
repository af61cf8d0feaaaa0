"""Benchmark of unicon4: three workloads, timed in fresh child processes,
with every output checked against the pins in bench/pins.json.

    python3 bench/run.py --workload census8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1          # all three, one after another
    python3 bench/run.py --workload all --smoke           # each once, at reduced size

Workloads (see BENCHMARK.json for why each was chosen):
  census8    brute_force_uniform(n) for n = 5..8; no seed
  closure8   a cold generate_catalog(8); no seed
  queries16  one client in a closed loop over unicon4.cli.main: analyze,
             removable, decompose -o and replay on a seeded corpus, n = 9..16

Every repetition runs in a fresh child process with no threads; children
run side by side, one pinned to each of up to two cores (see Work).
--trace 0 reports the end-to-end metrics: wall_ref_s (median over
repetitions of wall_s, the time from the first call into unicon4 until the
result is ready, rescaled to a reference host speed: wall_s times
REF_PROBE_S over the mean time of a fixed probe sampled on the same core
during the run, see child.SpeedProbe), setup_s (median over several
starts of the time from spawning the child until unicon4 is imported and
the inputs are loaded) and peak_rss_mib (the child's peak resident set,
VmHWM).  It also prints the raw wall_s, the
probe time, fail_frac, which is failed / attempted of the result line, and
for queries16 the per-command latency percentiles query_p50_ms and
query_p90_ms.  These are not declared in BENCHMARK.json: wall_s drifts with
the host's speed by more than a bound should allow, and the others are not
measured, or not non-zero, on every workload.
--trace 1 runs the workload twice untraced and twice traced and reports the
per-layer metrics of spans.py, with the tracing overhead as traced minus
untraced wall_ref_s (means of two).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is 0 when every
output matched its pin.  The benchmark needs only the standard library and
imports the program from src/ of the checkout this file sits in.
"""

import argparse
import functools
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import stats  # noqa: E402

WORKLOADS = ("census8", "closure8", "queries16")
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
PER_LAYER = (
    ("graph_core.canonical.calls", "count"), ("graph_core.canonical.self_s", "s"),
    ("graph_core.io.self_s", "s"),
    *((f"connectivity.{g}.{k}", u) for g in ("uniform4", "k_connected", "kappa", "ends", "report")
      for k, u in (("calls", "count"), ("self_s", "s"))),
    ("connectivity.uniform4.true_frac", "ratio"),
    ("chording.exists.calls", "count"), ("chording.exists.self_s", "s"),
    ("chording.exists.true_frac", "ratio"),
    ("chording.exists.q3cc.calls", "count"), ("chording.exists.eplus.calls", "count"),
    ("chording.exists.qchord.calls", "count"),
    ("chording.find.calls", "count"), ("chording.find.self_s", "s"),
    *((f"chording.{c}.{k}", u) for c in ("fan_levels", "simple_paths")
      for k, u in (("hits", "count"), ("misses", "count"), ("hit_ratio", "ratio"))),
    ("chording.verdicts.size", "count"), ("chording.budget_exceeded", "count"),
    *((f"transform.{g}.{k}", u) for g in ("validate", "compat", "apply", "reduce")
      for k, u in (("calls", "count"), ("self_s", "s"))),
    ("transform.validate.pass_frac", "ratio"),
    ("transform.validate.rejected.reduced-kappa-3", "count"),
    ("transform.validate.rejected.reduced-kappa-2", "count"),
    ("transform.validate.rejected.end-coverage", "count"),
    ("transform.validate.rejected.other", "count"),
    ("transform.compat.pass_frac", "ratio"),
    ("transform.compat.rejected.quasi_3cc", "count"),
    ("transform.compat.rejected.quasi_chord", "count"),
    ("transform.compat.rejected.e_plus_quasi_3cc", "count"),
    ("construct.oracle.self_s", "s"), ("construct.oracle.screened", "count"),
    ("construct.generate.self_s", "s"), ("construct.generate.specs", "count"),
    ("construct.decompose.calls", "count"), ("construct.decompose.self_s", "s"),
    ("construct.decompose.useful_frac", "ratio"),
    ("construct.replay.calls", "count"), ("construct.replay.self_s", "s"),
    ("cli.main.calls", "count"), ("cli.self_s", "s"),
    ("trace.overhead_s", "s"), ("trace.spans", "count"),
)
SETUP_STARTS = 24      # setup-only children per run, besides one per repetition
RUN_LIMIT_S = 170      # a child still running this long after the run began is killed
QUANTILES = (("query_p50_ms", 0.5), ("query_p90_ms", 0.9))
# about the median time of child.SpeedProbe's work on the 2-vCPU x86-64 VM
# where the benchmark was written; wall_ref_s is wall time at that speed
REF_PROBE_S = 120e-6


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Work:
    """Scratch directory of one run inside the checkout, removed at exit.

    Children run side by side, one per core and pinned to it, at most two
    at a time.  On a 2-core x86-64 VM two pure-Python loops ran side by side
    as fast as one alone, and their speeds varied independently (the host's
    speed swings up to 2x within seconds), so a run that times two
    repetitions at once gets twice the samples for the same time.  Each
    child slot has its own working directory."""

    def __init__(self):
        self.started = _clock()
        self.dir = ROOT / ".bench_work" / str(os.getpid())
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.cpus = sorted(os.sched_getaffinity(0))[:2]
        self.slots = [self.dir / f"slot{k}" for k in range(len(self.cpus))]
        for d in self.slots:
            d.mkdir()

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            self.dir.parent.rmdir()
        except OSError:
            pass

    def children(self, requests: list) -> list:
        """Run child.py once per request, len(self.cpus) at a time; returns
        for each request its result dict or an error string."""
        out = []
        for k in range(0, len(requests), len(self.cpus)):
            out += self._wave(requests[k:k + len(self.cpus)])
        return out

    def _wave(self, requests):
        procs = []
        try:
            for cpu, slot, request in zip(self.cpus, self.slots, requests):
                for old in slot.iterdir():  # every child starts in an empty directory
                    old.unlink()
                req_path = slot / "request.json"
                req_path.write_text(json.dumps(dict(request, src=str(SRC))), encoding="utf-8")
                cmd = [sys.executable, "-I", "-S", "-X", f"pycache_prefix={self.dir / 'pycache'}",
                       str(HERE / "child.py"), str(req_path), str(slot / "result.json")]
                with open(slot / "stderr.txt", "w", encoding="utf-8") as err:
                    spawn = _clock()
                    proc = subprocess.Popen(cmd, cwd=slot, stdin=subprocess.DEVNULL,
                                            stdout=subprocess.DEVNULL, stderr=err,
                                            preexec_fn=functools.partial(os.sched_setaffinity, 0, {cpu}))
                procs.append((proc, slot, spawn))
            results = []
            for proc, slot, spawn in procs:
                try:
                    proc.wait(timeout=max(1.0, RUN_LIMIT_S - (_clock() - self.started)))
                except subprocess.TimeoutExpired:
                    results.append(f"child killed: the run reached {RUN_LIMIT_S} s")
                    continue
                results.append(self._result(proc.returncode, slot, spawn))
            return results
        finally:
            for proc, _, _ in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()

    @staticmethod
    def _result(code, slot, spawn):
        res_path = slot / "result.json"
        if code != 0 or not res_path.exists():
            tail = (slot / "stderr.txt").read_text(encoding="utf-8").strip().splitlines()[-1:] or [""]
            return f"child exited {code}: {tail[0]}"
        res = json.loads(res_path.read_text(encoding="utf-8"))
        res["setup_s"] = res["ready"] - spawn
        if "wall_s" in res:
            res["wall_ref_s"] = res["wall_s"] * REF_PROBE_S / res["probe_s"]
        return res


# -- workloads: requests and output checks --------------------------------------


class Census:
    name = "census8"

    def __init__(self, pins, seed, smoke, work):
        self.pins = pins["census8"]
        self.request = {"workload": self.name, "sizes": [5, 6, 7] if smoke else [5, 6, 7, 8]}

    def check(self, result):
        """(attempted, failed, problems): one operation per order."""
        problems = []
        for n in self.request["sizes"]:
            got = stats.cert_digest(result[str(n)])
            if got != self.pins[str(n)]["sha256"]:
                problems.append(f"n={n}: {len(result[str(n)])} graphs, digest {got[:12]} "
                                f"!= pinned {self.pins[str(n)]['sha256'][:12]}")
        return len(self.request["sizes"]), len(problems), problems

    def notes(self, result):
        return [f"counts {'/'.join(str(len(result[str(n)])) for n in self.request['sizes'])}"]


class Closure:
    name = "closure8"

    def __init__(self, pins, seed, smoke, work):
        self.pins = pins
        self.request = {"workload": self.name, "n_max": 7 if smoke else 8}

    def check(self, result):
        """(attempted, failed, problems): the closure is one operation."""
        pinned, certs = self.pins["closure8"], result["certs"]
        problems = []
        for n in range(5, self.request["n_max"] + 1):
            got = stats.cert_digest(certs[str(n)])
            if got != pinned[str(n)]["sha256"]:
                problems.append(f"n={n}: digest {got[:12]} != pinned {pinned[str(n)]['sha256'][:12]}")
        if result["budget_hits"] or result["soundness_failures"] or not result["complete"]:
            problems.append(f"budget_hits={result['budget_hits']} "
                            f"soundness_failures={result['soundness_failures']}")
        if self.request["n_max"] >= 8:
            gap = set(self.pins["census8"]["8"]["certs"]) - set(certs["8"])
            if gap != set(self.pins["known_gap_n8"]):
                problems.append(f"n=8 gap {sorted(gap)} != expected {self.pins['known_gap_n8']}")
        return 1, int(bool(problems)), problems

    def notes(self, result):
        counts = "/".join(str(len(c)) for _, c in sorted(result["certs"].items()))
        out = [f"counts {counts}, budget_hits {result['budget_hits']}, "
               f"soundness failures {result['soundness_failures']}"]
        if self.request["n_max"] >= 8:
            out.append("n=8 gap (in the census, not in the closure; expected): "
                       + " ".join(self.pins["known_gap_n8"]))
        return out


class Queries:
    name = "queries16"

    def __init__(self, pins, seed, smoke, work):
        self.graphs = corpus.build(pins["pool"], seed, corpus.SMOKE_ORDERS if smoke else corpus.ORDERS)
        self.dir = work.dir / "corpus"
        self.dir.mkdir()
        self.request = {"workload": self.name, "commands": corpus.write(self.graphs, self.dir)}

    def check(self, result):
        """(attempted, failed, problems): one operation per CLI command."""
        problems, failed = [], 0
        for r in result:
            g = self.graphs[r["graph"]]
            found = corpus.check(g, r["cmd"], r["code"], r["fields"])
            failed += bool(found)
            problems += [f"{r['cmd']} {g['kind']} {g['source']} n={g['n']}: {p}" for p in found]
        return len(result), failed, problems

    def notes(self, result):
        kinds = {}
        for g in self.graphs:
            kinds[g["kind"]] = kinds.get(g["kind"], 0) + 1
        return [f"{len(self.graphs)} graphs {kinds}, {len(result)} commands"]


def _outputs(result):
    """The part of a child's result that must not depend on timing or tracing."""
    if isinstance(result, list):
        return [{k: v for k, v in r.items() if k != "latency_s"} for r in result]
    return result


# -- runs ------------------------------------------------------------------------


def _meta(seed):
    files = sorted((SRC / "unicon4").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "seed": seed, "commit": _git_commit(),
            "src_lines": lines, "src_sha256": digest.hexdigest()}


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _untraced(wl, work, seconds, smoke):
    """Setup starts, repetitions in waves of one child per core, and setup
    starts again; the repetitions end at the wave boundary nearest to
    seconds, after one wave at least.  Returns (reps, errors, metrics)."""
    setups, reps, errors = [], [], []
    setup = {"workload": wl.name, "setup_only": True, "commands": wl.request.get("commands")}

    def collect(results, into):
        for res in results:
            if isinstance(res, str):
                errors.append(res)
            else:
                into.append(res)
                setups.append(res["setup_s"])

    if smoke:
        collect(work.children([wl.request]), reps)
    else:
        # half of the setup starts before the repetitions and half after,
        # so that their median spans the run and not one moment of it
        collect(work.children([setup] * (SETUP_STARTS // 2)), [])
        start = _clock()
        while not errors:
            wave = _clock()
            collect(work.children([wl.request] * len(work.cpus)), reps)
            if _clock() - start + (_clock() - wave) / 2 > seconds:
                break
        collect(work.children([setup] * (SETUP_STARTS - SETUP_STARTS // 2)), [])
    print(f"== {wl.name}  repetitions={len(reps)}  setup starts={len(setups)}  "
          f"children side by side={len(work.cpus)}")
    if not reps:
        return reps, errors, {}
    samples = {key: [r[key] for r in reps] for key in ("wall_ref_s", "wall_s", "peak_rss_mib")}
    samples["setup_s"] = setups
    samples["probe_us"] = [r["probe_s"] * 1e6 for r in reps]
    metrics = {}
    for key, unit in END_TO_END + (("wall_s", "s"), ("probe_us", "us")):
        value = statistics.median(samples[key])
        if (key, unit) in END_TO_END:
            metrics[key] = {"value": value, "unit": unit}
        print(f"  {key:<14} {_fmt(value):>12} {unit:<5} median of {len(samples[key])}"
              f" (min {min(samples[key]):.6g}, max {max(samples[key]):.6g})")
    if wl.name == "queries16":
        latencies = [r["latency_s"] * 1000 for rep in reps for r in rep["result"]]
        for key, q in QUANTILES:
            value = stats.percentile(latencies, q)
            shown = "n/a (needs 10 samples beyond it)" if value is None else f"{value:.6g} ms"
            print(f"  {key:<14} {shown:>12} over {len(latencies)} commands")
    return reps, errors, metrics


def _traced(wl, work):
    """Two untraced and two traced repetitions, each traced one beside an
    untraced one, on either core.  Returns (reps, errors, metrics)."""
    plain, traced = wl.request, dict(wl.request, trace=True)
    reps = work.children([plain, traced]) + work.children([traced, plain])
    errors = [r for r in reps if isinstance(r, str)]
    print(f"== {wl.name}  traced")
    if errors:
        return [r for r in reps if not isinstance(r, str)], errors, {}
    walls = {t: [r["wall_ref_s"] for r in reps if ("layers" in r) == t] for t in (False, True)}
    both = [r["layers"] for r in reps if "layers" in r]
    layers = {k: v if isinstance(v, int) else statistics.mean(l[k] for l in both)
              for k, v in both[0].items()}
    layers["trace.overhead_s"] = statistics.mean(walls[True]) - statistics.mean(walls[False])
    print(f"  untraced wall_ref_s {statistics.mean(walls[False]):.6g} s, "
          f"traced wall_ref_s {statistics.mean(walls[True]):.6g} s (means of 2)")
    metrics = {}
    for key, unit in PER_LAYER:
        metrics[key] = {"value": layers[key], "unit": unit}
        print(f"  {key:<46} {_fmt(layers[key]):>12} {unit}")
    return reps, errors, metrics


def _fmt(v):
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(name, pins, seed, seconds, trace, smoke):
    """Measure one workload, check its outputs and print the report;
    returns the contract's result object."""
    work = Work()
    try:
        wl = {"census8": Census, "closure8": Closure, "queries16": Queries}[name](pins, seed, smoke, work)
        # compiles the bytecode every later child of this run reads, as an
        # installed package would have it; no measurement pays for compiling
        work.children([{"workload": name, "setup_only": True}])
        reps, errors, metrics = _traced(wl, work) if trace else _untraced(wl, work, seconds, smoke)
    finally:
        work.close()
    attempted, failed, problems = len(errors), len(errors), list(errors)
    for r in reps:
        a, f, p = wl.check(r["result"])
        attempted, failed, problems = attempted + a, failed + f, problems + p
    # repetitions, traced or not, must agree on everything but the timings
    if len({stats.record_digest(_outputs(r["result"])) for r in reps}) > 1:
        problems.append("repetitions produced different outputs")
    # the program is deterministic: traced repetitions make the same calls
    counts = [{k: v for k, v in r["layers"].items() if isinstance(v, int)} for r in reps if "layers" in r]
    if any(c != counts[0] for c in counts):
        problems.append("traced call counts differ between repetitions")
    if reps:
        for line in wl.notes(reps[0]["result"]):
            print(f"  {line}")
    print(f"  fail_frac      {failed / attempted if attempted else 1.0:.6g} ({failed}/{attempted})")
    for p in problems[:20]:
        print(f"  FAIL {p}")
    print("  meta " + json.dumps(_meta(seed), sort_keys=True))
    correct = bool(reps) and not problems
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="measure about this long: repeat the workload up to the repetition "
                         "boundary nearest to it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="each workload once, at reduced size")
    args = ap.parse_args(argv)
    if not (SRC / "unicon4" / "__init__.py").is_file():
        print(f"no unicon4 sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {n: run_workload(n, pins, args.seed, args.seconds, args.trace, args.smoke)
               for n in names}
    if args.workload == "all":
        print(json.dumps(results, sort_keys=True))
    else:
        print(json.dumps(results[args.workload], sort_keys=True))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
