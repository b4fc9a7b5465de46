#!/usr/bin/env python3
"""Repository benchmark: the respin_sim grid and open-loop served traffic.

    python3 perfbench/run.py --workload grid|serve_hot|serve_mixed
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. The first run builds perfbench_native,
respin_serve and respin_router from source into .bench_build/ (Release,
the repository's own flags and LTO setting). Every line of output but the
last is for people; the last is one JSON object with correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics, --trace 1
re-runs the workload under spans and reports the per-layer metrics, the
where-the-wall-clock-goes table and trace_overhead. README.md says how to
read them; config.json holds every workload parameter.
"""

import argparse
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
NATIVE = os.path.join(BUILD, "perfbench_native")
SERVE = os.path.join(BUILD, "respin", "tools", "respin_serve")
ROUTER = os.path.join(BUILD, "respin", "tools", "respin_router")

sys.path.insert(0, os.path.join(HERE, "lib"))
import benchlib  # noqa: E402

CONFIG = json.load(open(os.path.join(HERE, "config.json")))


class Invalid(Exception):
    """The run could not measure what it claims (e.g. the generator fell
    behind its schedule): report no result rather than a slow one."""


def log(*parts):
    print(*parts, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_split():
    """(generator CPUs, server CPUs): the load generator spins on a CPU of
    its own so that neither it nor the servers preempt the other."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), set(cpus)
    return {cpus[0]}, set(cpus[1:])


def pinned(cpus):
    return (lambda: os.sched_setaffinity(0, cpus)) if cpus else None


# ---------------------------------------------------------------- build

def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no respin sources next to perfbench/; "
                         "run from the root of a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "a") as out:
        # Configure every time: cheap once configured, and a target added to
        # perfbench/CMakeLists.txt is unknown to an old build tree otherwise.
        steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD, "--target", "perfbench_native",
                  "-j", str(nproc())]]
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=850).returncode != 0:
                raise SystemExit("perfbench: build failed (see "
                                 ".bench_build/build.log)")


def provenance(seed, extra):
    info = json.loads(subprocess.run([NATIVE, "provenance"], check=True,
                                     capture_output=True, text=True).stdout)
    describe = ""
    if os.path.exists(os.path.join(ROOT, ".git")):
        describe = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"], cwd=ROOT,
            capture_output=True, text=True, timeout=10).stdout.strip()
    info.update({"nproc": nproc(), "git_describe": describe or "unknown",
                 "seed": seed})
    info.update(extra)
    return info


# ------------------------------------------------------------ processes

class Fleet:
    """Server processes of one serve set-up: spawned, waited for, torn
    down. Each process logs to its own file under the run directory."""

    def __init__(self, run_dir):
        self.run_dir = run_dir
        self.procs = []

    def spawn(self, name, argv):
        log_path = os.path.join(self.run_dir, "%s-%d.log" % (name, len(self.procs)))
        err = open(log_path, "w")
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=pinned(cpu_split()[1]))
        err.close()
        self.procs.append(proc)
        deadline = time.monotonic() + 30
        banner = "listening on port "
        while time.monotonic() < deadline:
            with open(log_path) as f:
                text = f.read()
            at = text.find(banner)
            if at >= 0 and "\n" in text[at:]:
                return proc, int(text[at + len(banner):].split()[0])
            if proc.poll() is not None:
                raise RuntimeError("%s exited before listening:\n%s" % (name, text))
            time.sleep(0.001)
        raise RuntimeError("%s never printed its listening banner" % name)

    def cpu_s(self):
        tick = os.sysconf("SC_CLK_TCK")
        total = 0.0
        for p in self.procs:
            with open("/proc/%d/stat" % p.pid) as f:
                fields = f.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / tick
        return total

    def peak_rss_mb(self):
        total = 0.0
        for p in self.procs:
            with open("/proc/%d/status" % p.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        return total

    def stop(self):
        for p in reversed(self.procs):
            if p.poll() is None:
                p.send_signal(signal.SIGTERM)
        for p in reversed(self.procs):
            try:
                p.wait(timeout=15)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs = []


def request(port, line):
    with socket.create_connection(("127.0.0.1", port), timeout=10) as s:
        s.sendall((line + "\n").encode())
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data)


def native(*args, cpus=None, timeout=170):
    cmd = [NATIVE] + [str(a) for a in args]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          preexec_fn=pinned(cpus))
    if done.returncode != 0:
        raise RuntimeError("%s failed:\n%s" % (" ".join(cmd[:2]), done.stderr))
    return done.stdout


def read_json(path):
    with open(path) as f:
        return json.load(f)


def read_rows(path):
    with open(path) as f:
        return [line.rstrip("\n").split("\t", 1) for line in f if line.strip()]


def latencies_ms(window, only_hits=False):
    """One latency per attempted request, math.inf for a failed one."""
    return [(math.inf if us < 0 else us / 1000.0)
            for us, hit in zip(window["lat_us"], window["hit"])
            if not only_hits or hit]


def late_ms(window, pct):
    late = [us / 1000.0 for us in window["late_us"] if us >= 0]
    return benchlib.nearest_rank(late, pct) if late else 0.0


# ----------------------------------------------------------------- grid

def grid_args(cfg, seed, threads):
    return ["--scale", cfg["scale"], "--seed", seed, "--threads", threads]


def run_grid(args, run_dir):
    cfg = CONFIG["workloads"]["grid"]
    threads = nproc()
    setups = []
    for _ in range(cfg["setup_reps"]):
        t0 = time.perf_counter()
        native("setup-grid", *grid_args(cfg, args.seed, threads))
        setups.append(time.perf_counter() - t0)
    out = os.path.join(run_dir, "grid.json")
    extra = []
    if args.trace:
        extra = ["--traced", 1, "--store", os.path.join(run_dir, "store.jsonl"),
                 "--spans", os.path.join(run_dir, "spans.jsonl")]
    native("grid", *grid_args(cfg, args.seed, threads), "--seconds",
           args.seconds, "--min-reps", cfg["min_reps"], "--out", out, *extra)
    g = read_json(out)
    reps = g["reps"]
    walls = [r["wall_s"] for r in reps]
    cells = int(g["cells"])
    failed = int(g["limit_hits"] + g["repeat_mismatches"])
    checks = {"cells hit the cycle limit": g["limit_hits"],
              "cell results differing between reps": g["repeat_mismatches"]}
    prov = {"exec_threads": int(g["threads"]), "connections": 0,
            "scale": cfg["scale"], "cells": cells}
    log("grid: %d cells x %d reps on %d threads, walls %s s" % (
        cells, len(reps), g["threads"], ", ".join("%.3f" % w for w in walls)))
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "sim_mips": statistics.median(r["instructions"] / r["wall_s"]
                                          for r in reps) / 1e6,
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": g["peak_rss_mb"],
            "p50_ms": 1000 * statistics.median(walls),
            "p99_ms": 1000 * benchlib.nearest_rank(walls, 99),
            "max_rate_rps": cells / statistics.median(walls),
        }
        log("grid: p50_ms/p99_ms are the whole grid's time to result over "
            "%d reps (nearest rank; under 100 reps p99 is the slowest rep)"
            % len(reps))
        return metrics, cells * len(reps), failed, checks, prov

    layers = g["layers"]
    failed += int(g["traced_mismatches"] + layers["check.serve_mismatches"] +
                  layers["check.skip_mismatches"])
    checks.update({
        "cells differing traced vs untraced": g["traced_mismatches"],
        "serve-probe results differing": layers["check.serve_mismatches"],
        "cells differing with cycle_skip off": layers["check.skip_mismatches"]})
    spans = [json.loads(l) for l in open(os.path.join(run_dir, "spans.jsonl"))]
    rows = benchlib.layer_table(spans, {"exec.lane"})
    tables = benchlib.format_table(
        "where the wall-clock goes: grid (thread-time of %d lanes over %.3f s)"
        % (layers["exec.threads"], layers["exec.wall_s"]), rows)
    tables.append("  core.run includes workload generation, which drains at "
                  "%.1f%% of core.run time when run alone (workload.share)"
                  % (100 * layers["workload.share"]))
    # The serve layers over the grid's keys: one worker over the store the
    # probe wrote, so every request is a store promotion or a cache hit.
    lines = os.path.join(run_dir, "lines.txt")
    native("lines", "--scale", cfg["scale"], "--seed", args.seed, "--out", lines)
    fleet = Fleet(run_dir)
    try:
        _, port = fleet.spawn("worker", [SERVE, "--port", "0", "--threads", "1",
                                         "--store",
                                         os.path.join(run_dir, "store.jsonl")])
        probe, stats = serve_probe_window(port, lines, args.seed, run_dir, cfg)
    finally:
        fleet.stop()
    per_layer = layer_metrics(layers)
    per_layer.update(socket_layer_metrics(probe, stats, layers, router=False))
    per_layer["trace_overhead"] = layers["exec.wall_s"] / statistics.median(walls)
    failed += probe["failed"]
    for line in tables:
        log(line)
    return (per_layer, cells * (len(reps) + 1) + probe["attempted"], failed,
            checks, prov)


def layer_metrics(layers):
    """The per-layer metrics BENCHMARK.json names that a probe reported."""
    names = [m["name"] for m in BENCH["per_layer"]]
    return {n: layers[n] for n in names if n in layers}


# ---------------------------------------------------------------- serve

def worker_stats(ports):
    totals = {}
    for port in ports:
        for name, value in request(port, '{"op":"stats"}')["counters"].items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def serve_probe_window(port, lines, seed, run_dir, cfg):
    """A short open-loop window over a warmed single worker (the grid's
    traced run uses it for the socket-side serve layers). Returns the
    window and the worker's counter deltas over it."""
    gen = cpu_split()[0]
    native("load", "--port", port, "--conns", 1, "--closed", 1, "--lines",
           lines, "--out", os.path.join(run_dir, "probe-warm.json"), cpus=gen)
    before = worker_stats([port])
    out = os.path.join(run_dir, "probe.json")
    native("load", "--port", port, "--conns", 1, "--lines", lines, "--rate",
           cfg["probe_rps"], "--seconds", cfg["probe_s"], "--seed", seed,
           "--out", out, cpus=gen)
    return read_json(out), stats_delta(before, worker_stats([port]))


def stats_delta(before, after):
    return {k: v - before.get(k, 0.0) for k, v in after.items()}


def socket_layer_metrics(window, stats, layers, router):
    rtt = [us for us, hit in zip(window["rtt_us"], window["hit"])
           if us >= 0 and hit]
    server_us = layers["serve.handle_us"] + (layers["serve.router_us"]
                                             if router else 0.0)
    runs = stats.get("serve.run_requests", 0.0)
    waits = stats.get("serve.queue_wait_ms.count", 0.0)
    hits = latencies_ms(window, only_hits=True)
    return {
        "serve.net_us": (statistics.median(rtt) - server_us) if rtt else 0.0,
        "serve.queue_wait_ms": (stats.get("serve.queue_wait_ms.sum_ms", 0.0) /
                                waits) if waits else 0.0,
        "serve.hit_p99_ms": benchlib.nearest_rank(hits, 99) if hits else 0.0,
        "serve.cache_hit_ratio": stats.get("serve.cache_hits", 0.0) / runs
        if runs else 0.0,
        "gen.late_p99_ms": late_ms(window, 99),
    }


def spawn_tier(fleet, name, cfg, run_dir, setup_index):
    """Workers (and for serve_hot the router) of one set-up; returns the
    port clients talk to and the worker ports."""
    worker_ports = []
    for w in range(cfg["workers"]):
        argv = [SERVE, "--port", "0", "--threads", str(cfg["worker_threads"])]
        if cfg.get("store"):
            store = os.path.join(run_dir, "store-%d-%d.jsonl" % (setup_index, w))
            if os.path.exists(store):
                os.remove(store)
            argv += ["--store", store]
        worker_ports.append(fleet.spawn("worker", argv)[1])
    if not cfg.get("router"):
        return worker_ports[0], worker_ports
    argv = [ROUTER, "--port", "0"]
    for p in worker_ports:
        argv += ["--worker", str(p)]
    return fleet.spawn("router", argv)[1], worker_ports


def window(port, lines, cfg, seed, rate, seconds, index, run_dir, tag,
           traced=False):
    out = os.path.join(run_dir, "%s.json" % tag)
    args = ["load", "--port", port, "--conns", cfg["conns"], "--lines", lines,
            "--rate", rate, "--seconds", seconds, "--seed", seed, "--window",
            index, "--miss-share", cfg.get("miss_share", 0), "--miss-scale",
            cfg["scale"], "--served", os.path.join(run_dir, "%s.tsv" % tag),
            "--out", out]
    if traced:
        args += ["--spans", os.path.join(run_dir, "%s-spans.jsonl" % tag)]
    native(*args, cpus=cpu_split()[0])
    return read_json(out)


def measured_window(port, lines, cfg, seed, rate, seconds, index, run_dir,
                    tag, traced=False):
    """A nominal-rate window, re-measured while the generator fell behind
    its schedule (lateness p90 over late_bound_ms: a generator that keeps
    up sends nine in ten requests on time even when host stalls delay a
    few); after three late attempts the run is invalid. Window indices (the
    native helper takes them modulo 1000) keep every window's fresh keys distinct
    within a run: nominal 0-99, ladder 100-149, retries +150 and +300,
    traced runs from 300."""
    bound = CONFIG["late_bound_ms"]
    for attempt in range(3):
        w = window(port, lines, cfg, seed, rate, seconds, index + 150 * attempt,
                   run_dir, tag, traced)
        late = late_ms(w, 90)
        if late <= bound:
            return w
        log("%s: generator late p90 %.3f ms > bound %.3f ms (attempt %d)"
            % (tag, late, bound, attempt + 1))
    raise Invalid("load generator fell behind its schedule; run invalid")


def run_serve(args, run_dir, name):
    cfg = CONFIG["workloads"][name]
    conns = min(cfg["conns"], nproc())
    cfg = dict(cfg, conns=conns)
    lines = os.path.join(run_dir, "hot.txt")
    native("lines", "--scale", cfg["scale"], "--seed", args.seed, "--out", lines)
    hot_count = len(open(lines).read().splitlines())
    nominal_s = args.seconds * cfg["nominal_share"]
    fleet = Fleet(run_dir)
    attempted = failed = 0
    setups = []
    try:
        for k in range(cfg["setup_reps"]):
            fleet.stop()
            t0 = time.perf_counter()
            port, worker_ports = spawn_tier(fleet, name, cfg, run_dir, k)
            warm_out = os.path.join(run_dir, "warm.json")
            native("load", "--port", port, "--conns", conns, "--closed", 1,
                   "--lines", lines, "--served",
                   os.path.join(run_dir, "warm.tsv"), "--out", warm_out,
                   cpus=cpu_split()[0])
            setups.append(time.perf_counter() - t0)
            warm = read_json(warm_out)
            attempted += warm["attempted"]
            failed += warm["failed"]
        if args.trace:
            # Untraced and traced windows alike, so trace_overhead compares
            # like with like; counters are deltas over the windows.
            before = worker_stats(worker_ports)
            base = measured_window(port, lines, cfg, args.seed,
                                   cfg["nominal_rps"], nominal_s / 2, 300,
                                   run_dir, "untraced")
            traced = measured_window(port, lines, cfg, args.seed,
                                     cfg["nominal_rps"], nominal_s / 2, 301,
                                     run_dir, "traced", traced=True)
            stats = stats_delta(before, worker_stats(worker_ports))
            fleet.stop()
            return serve_traced(args, run_dir, name, cfg, lines, base, traced,
                                stats)
        cpu0 = fleet.cpu_s()
        w = measured_window(port, lines, cfg, args.seed, cfg["nominal_rps"],
                            nominal_s, 0, run_dir, "nominal")
        cpu_s = fleet.cpu_s() - cpu0
        attempted += w["attempted"]
        failed += w["failed"]
        steps = []

        def step(rate):
            s = window(port, lines, cfg, args.seed, rate, cfg["ladder_step_s"],
                       100 + len(steps), run_dir, "step%d" % len(steps))
            steps.append(s)
            lat = latencies_ms(s)
            return benchlib.step_verdict(
                lat, s["backlog"], rate, cfg["limit_p99_ms"], late_ms(s, 90),
                CONFIG["late_bound_ms"],
                benchlib.slice_count(len(lat), 99, cfg["step_slices"]))
        max_rate, verdicts = benchlib.ladder_max_rate(cfg["ladder_rps"], step)
        peak_rss = fleet.peak_rss_mb()
    finally:
        fleet.stop()

    # Output checks, outside the timed windows: every hot key and a seeded
    # sample of fresh keys recomputed directly and compared byte for byte.
    warm_rows = dict(read_rows(os.path.join(run_dir, "warm.tsv")))
    nominal_rows = read_rows(os.path.join(run_dir, "nominal.tsv"))
    drift = sum(1 for line, r in nominal_rows
                if line in warm_rows and warm_rows[line] != r)
    misses = [row for row in nominal_rows if row[0] not in warm_rows]
    sample = random.Random(args.seed).sample(
        misses, min(len(misses), CONFIG["verify_miss_sample"]))
    rows = sorted(warm_rows.items()) + sample
    check_path = os.path.join(run_dir, "check.tsv")
    with open(check_path, "w") as f:
        f.writelines("%s\t%s\n" % (a, b) for a, b in rows)
    native("verify", "--served", check_path, "--threads", nproc(), "--seconds",
           cfg["sim_s"], "--out", os.path.join(run_dir, "verify.json"))
    v = read_json(os.path.join(run_dir, "verify.json"))
    failed += int(v["mismatches"]) + drift
    checks = {"served results differing from direct run_experiment":
              v["mismatches"],
              "hot results changing between warm-up and window": drift,
              "hot keys warmed": hot_count - len(warm_rows)}
    failed += hot_count - len(warm_rows)

    # p50/p99 are medians over equal slices of the window (benchlib.sliced),
    # each slice with at least ten samples beyond its percentile.
    lat = latencies_ms(w)
    n = len(lat)
    slices = {pct: benchlib.slice_count(n, pct, cfg["nominal_slices"])
              for pct in (50, 99)}
    log("%s: nominal %g req/s for %.1f s: %d requests, %d failed; p50 over "
        "%d slices, p99 over %d slices with %d samples beyond p99 each; "
        "generator late p90 %.3f / p99 %.3f ms; hits %d, misses %d" % (
            name, cfg["nominal_rps"], nominal_s, n, w["failed"], slices[50],
            slices[99], benchlib.beyond(n // slices[99], 99), late_ms(w, 90),
            late_ms(w, 99), w["hits"], w["misses"]))
    log("%s: ladder (limit p99 <= %g ms, %.2f s steps, bisected): %s" % (
        name, cfg["limit_p99_ms"], cfg["ladder_step_s"],
        ", ".join("%g:%s" % rv for rv in verdicts)))
    log("%s: checked %d served keys byte-for-byte (%d hot, %d fresh)" % (
        name, v["checked"], len(warm_rows), len(sample)))
    metrics = {
        "setup_s": statistics.median(setups),
        "sim_mips": v["mips"],
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss,
        "p50_ms": benchlib.sliced(lat, 50, slices[50]),
        "p99_ms": benchlib.sliced(lat, 99, slices[99]),
        "max_rate_rps": max_rate,
    }
    return metrics, attempted, failed, checks, serve_provenance(cfg)


def serve_provenance(cfg):
    return {"exec_threads": cfg["workers"] * cfg["worker_threads"],
            "generator_threads": 1, "connections": cfg["conns"],
            "nominal_rps": cfg["nominal_rps"], "scale": cfg["scale"]}


def serve_traced(args, run_dir, name, cfg, lines, base, traced, stats):
    # The in-process probes over this workload's keys: all hot keys plus
    # a seeded sample of the fresh keys the traced windows sent.
    served = os.path.join(run_dir, "traced.tsv")
    hot = open(lines).read().splitlines()
    misses = sorted({line for line, _ in read_rows(served)} - set(hot))
    sample = random.Random(args.seed).sample(
        misses, min(len(misses), CONFIG["verify_miss_sample"]))
    probe_lines = os.path.join(run_dir, "probe-lines.txt")
    with open(probe_lines, "w") as f:
        f.writelines(l + "\n" for l in hot + sample)
    out = os.path.join(run_dir, "layers.json")
    # The simulator probes run at the workers' own pool width.
    native("layers", "--lines", probe_lines, "--hot-count", len(hot), "--store",
           os.path.join(run_dir, "probe-store.jsonl"), "--served", served,
           "--threads", cfg["workers"] * cfg["worker_threads"], "--spans",
           os.path.join(run_dir, "layer-spans.jsonl"), "--out", out)
    layers = read_json(out)
    per_layer = layer_metrics(layers)
    per_layer.update(socket_layer_metrics(traced, stats, layers,
                                          router=cfg.get("router", False)))

    def p50(x):
        lat = latencies_ms(x)
        return benchlib.sliced(lat, 50, benchlib.slice_count(
            len(lat), 50, cfg["nominal_slices"]))
    per_layer["trace_overhead"] = p50(traced) / p50(base)

    spans = [json.loads(line) for line in
             open(os.path.join(run_dir, "traced-spans.jsonl"))]
    rows = benchlib.layer_table(spans, {"client.hit", "client.request"})
    for line in benchlib.format_table(
            "where the wall-clock goes: %s request path (client spans, %d "
            "requests)" % (name, traced["attempted"] - traced["failed"]),
            rows):
        log(line)
    for line in request_budget(name, cfg, traced, layers, per_layer):
        log(line)
    checks = {"served results differing from the traced probe":
              layers["check.served_mismatches"],
              "serve-probe results differing": layers["check.serve_mismatches"],
              "cells differing with cycle_skip off":
              layers["check.skip_mismatches"]}
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"] + int(sum(checks.values()))
    return per_layer, attempted, failed, checks, serve_provenance(cfg)


def request_budget(name, cfg, w, layers, per_layer):
    """The client's mean wire time (send to response line) split with the
    in-process probes' medians: the worker's serde and lookup for every
    request, the router hop when there is one, and for the misses' share
    the queue wait, the simulation and the store append. The rest is
    transport, wake-ups and waiting behind other requests on the same
    connection."""
    rtt = [us for us in w["rtt_us"] if us >= 0]
    mean = statistics.fmean(rtt) if rtt else 0.0
    parts = [("serve.parse", layers["serve.parse_us"]),
             ("serve.key", layers["serve.key_us"]),
             ("serve.serialize", layers["serve.serialize_us"])]
    parts.append(("serve.handle (self)",
                  layers["serve.handle_us"] - sum(v for _, v in parts)))
    if cfg.get("router"):
        parts.append(("serve.router (self)", layers["serve.router_us"]))
    if cfg.get("miss_share"):
        share = w["misses"] / max(w["attempted"], 1)
        parts.append(("serve.queue_wait x miss share",
                      1000 * per_layer["serve.queue_wait_ms"] * share))
        parts.append(("serve.sim x miss share",
                      1000 * layers["serve.sim_ms"] * share))
        parts.append(("serve.store_put x miss share",
                      1000 * layers["serve.store_put_ms"] * share))
    parts.append(("net, wake-ups, head-of-line (rest)",
                  mean - sum(v for _, v in parts)))
    out = ["where the wall-clock goes: %s mean wire time %.1f us, split by "
           "in-process medians" % (name, mean),
           "  %-36s %10s %8s" % ("layer", "us", "share")]
    for label, value in parts:
        out.append("  %-36s %10.1f %7.1f%%" % (
            label, value, 100 * value / mean if mean else 0))
    return out


# ----------------------------------------------------------------- main

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json"))) \
    if os.path.exists(os.path.join(ROOT, "BENCHMARK.json")) else None


def main():
    # A terminated run still stops its servers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(CONFIG["workloads"]))
    parser.add_argument("--seed", type=int, default=CONFIG["default_seed"])
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if BENCH is None:
        raise SystemExit("perfbench: BENCHMARK.json missing at the checkout root")

    build()
    run_dir = os.path.join(BUILD, "runs", "%s-%d-%d" % (args.workload,
                                                        args.seed, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.workload == "grid":
            metrics, attempted, failed, checks, extra = run_grid(args, run_dir)
        else:
            metrics, attempted, failed, checks, extra = run_serve(
                args, run_dir, args.workload)
    except Invalid as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    log("provenance: " + json.dumps(provenance(args.seed, extra)))
    for what, count in checks.items():
        log("check: %-52s %s" % (what, "ok" if not count else "FAILED (%d)" % count))
    log("fail_ratio: %d / %d = %.6f" % (failed, attempted, failed / attempted))
    spec = BENCH["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in spec
               if not math.isfinite(metrics.get(m["name"], math.nan))]
    if missing:
        raise SystemExit("perfbench: metrics not measured: %s" % missing)
    result = {}
    for m in spec:
        result[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
        log("%-34s %16.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
