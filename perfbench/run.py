#!/usr/bin/env python3
"""End-to-end benchmark of the ROLP runtime.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the driver from source (first run only), runs one workload with a
pinned configuration, checks its outputs, and prints as the last line of
stdout one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json from an untraced
run. --trace 1 runs the workload untraced and then traced (the program's
ROLP_TRACE spans, its teardown metrics dump and the benchmark's own spans)
and reports the per-layer metrics of BENCHMARK.json from the traced run,
including the tracing overhead on each end-to-end metric.

Workloads, metrics and the per-layer -> end-to-end map: README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

WORKLOADS = ("kv-rolp", "ingest-rolp", "graph-g1", "graph-zgc")
RUN_TIMEOUT_S = 170

# Every ROLP_* variable the caller's environment carries is dropped; these are
# set instead. They are the program's defaults, written out so a change of
# default shows up as a change of this benchmark's configuration.
PINNED_ENV = {
    "ROLP_LOG": "warn",
    "ROLP_CONCURRENT_EVAC": "0",
    "ROLP_ASYNC_INFERENCE": "1",
    "ROLP_ALLOC_BUFFER": "1",
    "ROLP_VERIFY": "off",
    "ROLP_WATCHDOG": "1",
    "ROLP_HEAP_ARENAS": "1",
    "ROLP_HEAP_THP": "0",
    "ROLP_HEAP_UNCOMMIT_MS": "0",
    "ROLP_PACING": "absolute",
    "ROLP_INGEST_INFER_PERIOD": "1",
}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; kills the whole process
    group on timeout and waits for it."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build():
    out = build_dir()
    binary = os.path.join(out, "perfbench_driver")
    os.makedirs(out, exist_ok=True)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        rc = run_quiet(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300)
        if rc != 0:
            shutil.rmtree(out, ignore_errors=True)
            raise RuntimeError("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run_quiet(["cmake", "--build", out, "-j", jobs], 800) != 0:
        raise RuntimeError("build failed")
    return binary


def host_stamp(driver_config):
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": model,
        "build_type": driver_config.get("build_type"),
        "compiler": driver_config.get("compiler"),
        "kernel": platform.release(),
    }


def run_driver(binary, args, workdir, traced):
    """One driver process; returns (driver JSON, metrics dumps, trace, spans)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("ROLP_")}
    env.update(PINNED_ENV)
    dump = os.path.join(workdir, "metrics.json")
    env["ROLP_METRICS_DUMP"] = dump
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    trace_path = os.path.join(workdir, "trace.json")
    spans_path = os.path.join(workdir, "spans.jsonl")
    if traced:
        env["ROLP_TRACE"] = trace_path
        cmd += ["--spans", spans_path]
    for name in os.listdir(workdir):
        os.remove(os.path.join(workdir, name))
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            env=env, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("driver timed out")
    if proc.returncode != 0:
        raise RuntimeError("driver exited with %d" % proc.returncode)
    lines = out.decode().strip().splitlines()
    if not lines:
        raise RuntimeError("driver printed nothing")
    result = json.loads(lines[-1])
    # RunIngest's VMs write the program's teardown dump, one file per
    # repetition; the other workloads read their VMs directly.
    dumps = []
    if args.workload == "ingest-rolp":
        for i in range(len(result["reps"])):
            path = "%s.rep%d" % (dump, i)
            if os.path.exists(path):
                with open(path) as f:
                    dumps.append(json.load(f))
    trace = spans = None
    if traced:
        with open(trace_path) as f:
            trace = json.load(f)
        with open(spans_path) as f:
            spans = [json.loads(line) for line in f if line.strip()]
    return result, dumps, trace, spans


# --- End-to-end metrics ------------------------------------------------------

def end_to_end(d, dumps):
    """The end-to-end metrics of one driver result (see README.md)."""
    w = d["workload"]
    reps = d["reps"]
    m = {"setup_s": stats.median(d["setup_s"])}
    if w.startswith("graph-"):
        ops = d["op_latency_us"]
        m["latency_p50_us"] = stats.percentile(ops, 50.0)
        m["latency_p99_us"] = stats.percentile(ops, 99.0)
        m["latency_p999_us"] = stats.percentile(ops, 99.9)
        m["batch_s"] = stats.median(d["batch_s"])
        m["gc_pause_total_ms"] = d["pause_total_ms"]
        m["gc_pause_p50_ms"] = stats.median(d["pause_ms"])
        m["heap_peak_mb"] = d["heap_peak_mb"]
    elif w == "kv-rolp":
        # Each VM's percentiles of its requests' exact lateness, then the
        # median over the VMs: one VM's outlier pause cannot set the figure.
        for k, p in (("p50", 50.0), ("p99", 99.0), ("p999", 99.9)):
            m["latency_%s_us" % k] = stats.median(
                [stats.percentile(r["lateness_us"], p) for r in reps])
        m["batch_s"] = stats.median([r["run_s"] for r in reps])
        m["gc_pause_total_ms"] = sum(r["pause_total_ms"] for r in reps)
        m["gc_pause_p50_ms"] = stats.median([p for r in reps for p in r["pause_ms"]])
        m["heap_peak_mb"] = max(r["heap_peak_mb"] for r in reps)
    else:
        # RunIngest reports only its own (log-bucketed) percentiles, and keeps
        # its VM to itself: pauses come from the program's teardown dumps.
        for k in ("p50", "p99", "p999"):
            m["latency_%s_us" % k] = stats.median([r["program_%s_us" % k] for r in reps])
        m["batch_s"] = stats.median([r["run_s"] for r in reps])
        m["gc_pause_total_ms"] = sum(x["gauges"]["gc.pause.total_ns"] for x in dumps) / 1e6
        m["gc_pause_p50_ms"] = stats.median(
            [x["histograms"]["gc.pause_ns"]["p50"] for x in dumps]) / 1e6
        m["heap_peak_mb"] = d["heap_peak_mb"]
    return m


def extra_checks(d, dumps):
    """Checks that need the driver's raw data: (name, ok, detail) tuples."""
    out = []
    if d["workload"] == "kv-rolp":
        # The rebuilt lateness of the executed requests must agree with the
        # program's own log-bucketed percentiles (bucket width ~3%). The
        # program also charges refused and shed requests, which never
        # execute, so the two are compared only on VMs where every request ran.
        for i, r in enumerate(d["reps"]):
            for k, p in (("p50", 50.0), ("p99", 99.0), ("p999", 99.9)):
                mine = stats.percentile(r["lateness_us"], p)
                theirs = r["program_%s_us" % k]
                detail = "rep %d %s: rebuilt %.1f us, program %.1f us" % (i, k, mine, theirs)
                if r["not_executed"]:
                    out.append(("kv.lateness_matches_program", True, detail +
                                " (not compared: %d requests not executed)" % r["not_executed"]))
                    continue
                ok = abs(mine - theirs) <= 0.06 * theirs + 10.0
                out.append(("kv.lateness_matches_program", ok, detail))
    if d["workload"] == "ingest-rolp":
        ok = len(dumps) == len(d["reps"]) and all(
            "gc.pause.total_ns" in x.get("gauges", {}) for x in dumps)
        out.append(("ingest.metrics_dumps", ok,
                    "%d dumps for %d repetitions" % (len(dumps), len(d["reps"]))))
    return out


# --- Per-layer metrics -------------------------------------------------------

# Parent of each benchmark span (same group, enclosing interval). A span's
# self time is its duration minus the part of it its children cover.
SPAN_PARENTS = {
    "workload.op": ("service.run", "graph.batch"),
    "service.vm_init": ("service.run",),
    "service.workload_setup": ("service.run",),
}
# Span times reported; set-up spans are covered by runtime.vm_init_ms and
# workloads.setup_ms.
SPAN_METRICS = (("service.run", "total"), ("service.run", "self"),
                ("workload.op", "total"), ("graph.batch", "total"),
                ("graph.batch", "self"), ("ingest.run", "total"))


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times_ms(spans):
    """Total and self time per span name, in ms."""
    children = {}
    by_key = {}
    for s in spans:
        by_key.setdefault((s["name"], s["group"]), []).append(s)
    for s in spans:
        for parent_name in SPAN_PARENTS.get(s["name"], ()):
            for p in by_key.get((parent_name, s["group"]), ()):
                if p["start_ns"] <= s["start_ns"] and s["end_ns"] <= p["end_ns"]:
                    children.setdefault(id(p), []).append(
                        (s["start_ns"], s["end_ns"]))
                    break
    total, self_ = {}, {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        kids = children.get(id(s), [])
        total[s["name"]] = total.get(s["name"], 0) + dur
        self_[s["name"]] = self_.get(s["name"], 0) + dur - covered(kids)
    return ({k: v / 1e6 for k, v in total.items()},
            {k: v / 1e6 for k, v in self_.items()})


def program_trace_ms(trace):
    """Total and self time of the program's own ROLP_TRACE spans by name."""
    events = [e for e in trace.get("traceEvents", []) if e.get("ph") == "X"]
    total = {}
    for e in events:
        total[e["name"]] = total.get(e["name"], 0.0) + e["dur"] / 1e3
    # gc.pause encloses the gc.phase.* spans of the same thread.
    phases = {}
    for e in events:
        if e["name"].startswith("gc.phase."):
            phases.setdefault(e["tid"], []).append((e["ts"], e["ts"] + e["dur"]))
    pause_self = 0.0
    for e in events:
        if e["name"] == "gc.pause":
            lo, hi = e["ts"], e["ts"] + e["dur"]
            inside = [(max(s, lo), min(t, hi)) for s, t in phases.get(e["tid"], ())
                      if s < hi and t > lo]
            pause_self += (e["dur"] - covered(inside)) / 1e3
    return total, pause_self, len(trace.get("traceEvents", []))


def pause_tail(pauses_ms):
    """(percentile, value, samples beyond) by the rule in stats.tail; zeros
    when there are too few pauses for any tail."""
    t = stats.tail(pauses_ms) if pauses_ms else None
    return t if t is not None else (0.0, 0.0, 0)


# Per-layer counters read straight from the VMs (kv, graph) and the matching
# gauges of the program's metrics dump (ingest), with their scale to the
# reported unit.
DUMP_GAUGES = {
    "gc.pause.scan_ms": ("gc.pause.scan_ns", 1e-6),
    "gc.pause.evac_ms": ("gc.pause.evac_ns", 1e-6),
    "gc.pause.profiler_ms": ("gc.pause.profiler_ns", 1e-6),
    "gc.phase_cpu.mark_ms": ("gc.phase_cpu_ns.mark", 1e-6),
    "gc.phase_cpu.scan_ms": ("gc.phase_cpu_ns.scan", 1e-6),
    "gc.phase_cpu.evacuate_ms": ("gc.phase_cpu_ns.evacuate", 1e-6),
    "gc.copied_mb": ("gc.bytes_copied", 1.0 / 1048576.0),
    "gc.concurrent_work_ms": ("gc.concurrent_work_ns", 1e-6),
    "heap.region_lock.stall_ms": ("heap.region_lock.stall_ns", 1e-6),
    "rolp.inferences": ("rolp.inferences", 1.0),
    "rolp.decisions": ("rolp.decisions", 1.0),
    "rolp.survivors_seen": ("rolp.survivors_seen", 1.0),
}


def per_layer(d, dumps, trace, spans, overhead):
    L = d["layers"]
    w = d["workload"]
    ops = d["op_latency_us"]
    m = {}

    def layer(name):
        return float(L.get(name, 0.0))

    # service (kv-rolp): the benchmark times every Workload::Op.
    kv = w == "kv-rolp"
    for name in ("service.generator_lag_us", "service.queue_wait_mean_us",
                 "service.queue_wait_p99_us", "service.rejected", "service.shed",
                 "service.deadline_miss"):
        m[name] = layer(name)
    m["service.execute_p50_us"] = stats.percentile(ops, 50.0) if kv else 0.0
    m["service.execute_p99_us"] = stats.percentile(ops, 99.0) if kv else 0.0
    # ingest
    m["ingest.offered_eps"] = layer("ingest.offered_eps")
    m["ingest.alloc_ns_per_event"] = layer("ingest.alloc_ns_per_event")
    # graph: the benchmark times every interval (Op).
    graph = w.startswith("graph-")
    m["graph.interval_p50_ms"] = stats.percentile(ops, 50.0) / 1e3 if graph else 0.0
    # runtime / workloads set-up
    m["runtime.vm_init_ms"] = stats.median(d["vm_init_ms"])
    m["workloads.setup_ms"] = stats.median(d["workload_setup_ms"])
    m["heap.governor.throttle_stalls"] = layer("heap.governor.throttle_stalls")

    if w == "ingest-rolp":
        hists = [x["histograms"]["gc.pause_ns"] for x in dumps]
        m["gc.pauses"] = float(sum(h["count"] for h in hists))
        m["gc.pause_p90_ms"] = stats.median([h["p90"] for h in hists]) / 1e6
        m["gc.pause_max_ms"] = max(h["max"] for h in hists) / 1e6
        # Only a bucketed histogram per VM is published: no pooled tail.
        p, v, beyond = 0.0, 0.0, 0
        for name, (gauge, scale) in DUMP_GAUGES.items():
            m[name] = sum(x["gauges"].get(gauge, 0.0) for x in dumps) * scale
        m["gc.allocated_mb"] = 0.0  # not published for RunIngest's VM
        m["rolp.first_decision_cycle"] = 0.0  # not published
    else:
        pauses = (d["pause_ms"] if graph
                  else [x for r in d["reps"] for x in r["pause_ms"]])
        m["gc.pauses"] = float(len(pauses))
        m["gc.pause_p90_ms"] = stats.percentile(pauses, 90.0) if pauses else 0.0
        m["gc.pause_max_ms"] = max(pauses) if pauses else 0.0
        p, v, beyond = pause_tail(pauses)
        for name in list(DUMP_GAUGES) + ["gc.allocated_mb", "rolp.first_decision_cycle"]:
            m[name] = layer(name)
    m["gc.pause_tail_pct"] = float(p)
    m["gc.pause_tail_ms"] = float(v)
    m["gc.pause_tail_samples"] = float(beyond)
    m["gc.copied_per_allocated"] = (m["gc.copied_mb"] / m["gc.allocated_mb"]
                                    if m["gc.allocated_mb"] > 0 else 0.0)
    m["gc.copy_rate_mb_s"] = (m["gc.copied_mb"] / (m["gc.pause.evac_ms"] / 1e3)
                              if m["gc.pause.evac_ms"] > 0 else 0.0)
    del m["gc.allocated_mb"]
    m["zgc.healed_slots"] = layer("zgc.healed_slots")
    m["zgc.gc_relocated"] = layer("zgc.gc_relocated")

    # The benchmark's own spans and the program's ROLP_TRACE spans.
    total, self_ = self_times_ms(spans)
    for name, kind in SPAN_METRICS:
        m["span.%s.%s_ms" % (name, kind)] = (total if kind == "total" else self_).get(name, 0.0)
    ptotal, pause_self, events = program_trace_ms(trace)
    for name in ("gc.pause", "gc.phase.scan", "gc.phase.evacuate", "gc.phase.mark",
                 "rolp.inference.analyze"):
        m["trace.%s_ms" % name] = ptotal.get(name, 0.0)
    m["trace.gc.pause.self_ms"] = pause_self
    m["trace.events"] = float(events)
    for name, value in overhead.items():
        m["trace_overhead.%s" % name] = value
    return m


def checks_ok(d, dumps):
    """Runs every check, prints each, and returns whether all passed."""
    checks = [(c["name"], c["ok"], c["detail"]) for c in d["checks"]]
    checks += extra_checks(d, dumps)
    for name, ok, detail in checks:
        print("PERFBENCH_CHECK %s %s: %s" % ("ok" if ok else "FAILED", name, detail))
    return bool(checks) and all(ok for _, ok, _ in checks)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        ap.error("seed must be >= 0 and seconds in 1..60")

    spec = load_spec()
    started = time.monotonic()
    binary = build()
    workdir = os.path.join(os.path.dirname(build_dir()), "runs",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        d, dumps, _, _ = run_driver(binary, args, workdir, traced=False)
        correct = checks_ok(d, dumps)
        e2e = end_to_end(d, dumps)
        host = host_stamp(d["config"])
        print("PERFBENCH_HOST " + json.dumps(host, sort_keys=True))
        # Refusals and sheds are not failures here (their count depends on
        # timing); they are printed on every run.
        print("PERFBENCH_OUTCOMES " + json.dumps(
            {k: v for k, v in sorted(d["layers"].items()) if k.startswith("service.")}))
        print("PERFBENCH_CONFIG " + json.dumps(
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
             "env": PINNED_ENV, "driver": d["config"]}, sort_keys=True))
        if args.trace:
            td, tdumps, trace, spans = run_driver(binary, args, workdir, traced=True)
            correct = checks_ok(td, tdumps) and correct
            traced_e2e = end_to_end(td, tdumps)
            overhead = {k: (traced_e2e[k] - v) / v if v else 0.0
                        for k, v in e2e.items()}
            values = per_layer(td, tdumps, trace, spans, overhead)
            wanted = spec["per_layer"]
            attempted, failed = td["attempted"], td["failed"]
        else:
            values = e2e
            wanted = spec["end_to_end"]
            attempted, failed = d["attempted"], d["failed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            raise RuntimeError("metric %s not computed" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name in sorted(metrics):
        print("  %-36s %16.6f %s" % (name, metrics[name]["value"], metrics[name]["unit"]))
    log("%s seed %d done in %.1f s" % (args.workload, args.seed,
                                        time.monotonic() - started))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("error: %s" % (e,))
        sys.exit(1)
