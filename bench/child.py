"""One timed run of one workload, in a fresh interpreter.

Started by run.py as
    python3 -I -S -X pycache_prefix=<run dir> bench/child.py <request.json> <result.json>
so that no module state survives from an earlier run: the module-global
caches of unicon4 start empty without any clear hook.  -I -S keeps the
environment, the user's site and site-packages out; unicon4 needs only the
standard library.  Bytecode is cached in the run's own directory.  The
child starts in an empty working directory of its own, which receives
the trace files that queries16's decompose -o writes and replay reads.
The request names the workload and its inputs; the result carries the
timings, the host-speed probe (SpeedProbe), the peak RSS and the raw
outputs, which run.py checks against the pins.  With "setup_only" the child stops once unicon4 is imported and the
inputs are loaded.
"""

import contextlib
import io
import json
import os
import signal
import sys
import time

PROBE_PERIOD_S = 0.05


def _clock() -> float:
    # system-wide, so the parent's spawn time and this process's times compare
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_kib() -> int:
    """The peak resident set of this program, from VmHWM.  ru_maxrss would
    not do: a child created by fork inherits the maximum of its parent, so
    it reports the parent's size whenever that is the larger."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _probe_work() -> int:
    """Fixed pure-Python work of about 0.1 ms that shares no code with unicon4."""
    counts: dict = {}
    acc = 0
    for i in range(300):
        k = (i * 2654435761) & 255
        counts[k] = counts.get(k, 0) + 1
        acc ^= (k << 3) | (acc >> 5)
    return acc


class SpeedProbe:
    """Times _probe_work every PROBE_PERIOD_S of wall time while the
    workload runs, on the same core, from a SIGALRM handler (no thread).

    The host's speed swings by up to 2x within seconds and drifts by some
    20 % between runs minutes apart.  The mean probe time follows both, so
    wall time divided by it varies far less than wall time alone: on a
    2-vCPU x86-64 VM, in two sets of ten runs of each workload, the
    interquartile range over the median was 0.05-0.14 for wall time and
    0.012-0.033 for wall time over probe time.  The mean leaves out the
    slowest and the fastest tenth of the samples, so that a rare probe
    preempted by another process does not weigh on it.  The probe costs
    about 0.25 % of the run."""

    def __enter__(self):
        self.times = []
        self._handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        _probe_work()
        self.times.append(time.perf_counter() - start)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self._tick()  # one sample at least, however short the workload

    def mean_s(self) -> float:
        """Mean probe time, a tenth of the samples trimmed at either end."""
        ordered = sorted(self.times)
        cut = len(ordered) // 10
        kept = ordered[cut:len(ordered) - cut]
        return sum(kept) / len(kept)


def _census(unicon4, sizes):
    return {str(n): sorted(c.decode("ascii") for c in unicon4.brute_force_uniform(n))
            for n in sizes}


def _closure(unicon4, n_max):
    cat = unicon4.generate_catalog(n_max)
    return {"certs": {str(n): sorted(c.decode("ascii") for c in certs)
                      for n, certs in sorted(cat.certs_by_n.items())},
            "budget_hits": cat.budget_hits,
            "soundness_failures": len(cat.soundness_failures),
            "complete": cat.complete}


def _queries(cli, commands):
    outputs = []
    for c in commands:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(c["argv"]))
        except Exception as exc:  # an escaped exception is a failed command, not a crashed run
            code = f"{type(exc).__name__}: {exc}"
        outputs.append((code, time.perf_counter() - start, buf.getvalue()))
    return outputs


_FIELDS = {
    "analyze": lambda d: {"uniform4": d.get("uniform4"),
                          "witness": (d.get("witness") or {}).get("kind")},
    "removable": lambda d: {"removable_count": d.get("removable_count"),
                            "rows": len(d.get("edges", []))},
    "decompose": lambda d: {"base": d.get("base"), "steps": d.get("steps")},
    "replay": lambda d: {"result_cert": d.get("result_cert")},
}


def _command_records(commands, outputs):
    records = []
    for c, (code, latency, text) in zip(commands, outputs):
        cmd = c["argv"][0]
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            doc = {}
        fields = _FIELDS[cmd](doc)
        fields["error"] = doc.get("error")
        records.append({"graph": c["graph"], "cmd": cmd, "code": code,
                        "latency_s": latency, "fields": fields})
    return records


def main(request_path: str, result_path: str) -> None:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    sys.path.insert(0, req["src"])
    import unicon4
    from unicon4 import chording, cli, connectivity, construct, graph_core, transform
    if not os.path.abspath(unicon4.__file__).startswith(os.path.abspath(req["src"])):
        raise SystemExit(f"unicon4 imported from {unicon4.__file__}, not from {req['src']}")
    commands = req.get("commands")
    ready = _clock()
    out = {"ready": ready}
    if not req.get("setup_only"):
        tracer = None
        if req.get("trace"):
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            import spans
            tracer = spans.Tracer()
            tracer.install({"unicon4": unicon4, "graph_core": graph_core,
                            "connectivity": connectivity, "chording": chording,
                            "transform": transform, "construct": construct, "cli": cli})
        workload = req["workload"]
        with SpeedProbe() as probe:
            start = time.perf_counter()
            if workload == "census8":
                result = _census(unicon4, req["sizes"])
            elif workload == "closure8":
                result = _closure(unicon4, req["n_max"])
            else:
                result = _queries(cli, commands)
            out["wall_s"] = time.perf_counter() - start
        out["probe_s"] = probe.mean_s()
        out["peak_rss_mib"] = _peak_rss_kib() / 1024
        if workload == "queries16":
            result = _command_records(commands, result)
        out["result"] = result
        if tracer is not None:
            tracer.uninstall()
            metrics = spans.layer_metrics(tracer.spans)
            metrics.update(spans.cache_metrics(chording))
            out["layers"] = metrics
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
