#!/usr/bin/env python3
"""quantlib benchmark runner: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload zone-seq --seed 1 --seconds 25 --trace 0

Run from the repository root. It builds the worker, quantd and
the paper harness with dune, then starts every sample as a fresh
process (perfbench/worker.exe, bench/main.exe or bin/quantd.exe), so
each sample pays what a one-shot user pays. It checks every verdict
against perfbench/expected/, prints each metric as
`workload metric value unit`, writes perfbench/results/latest.json and
ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics. The exit code is 1 when any check failed, a
sample process or the daemon died included (the JSON line still
prints), and 2 when the benchmark could not run at all (not at a
repository root, or the build failed). The workload `smoke` runs every
workload's code path on small inputs in a few seconds; `dune runtest`
runs it through perfbench/test_run.py. See perfbench/README.md.
"""

import argparse
import json
import os
import random
import re
import select
import signal
import socket
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
HERE = os.path.join(ROOT, "perfbench")
RESULTS = os.path.join(HERE, "results")
BUILD = os.path.join(ROOT, "_build", "default")
WORKER = os.path.join(BUILD, "perfbench", "worker.exe")
QUANTD = os.path.join(BUILD, "bin", "quantd.exe")
PAPER = os.path.join(BUILD, "bench", "main.exe")
EXPECTED = os.path.join(HERE, "expected")

SETUP_PROBES = 25  # fresh start-ups per run for setup_s
# The calibration kernel (worker.exe calibrate JOBS) runs on as many
# domains as the workload keeps cores busy (CAL_JOBS, default 1) and
# takes CAL_REF_S[JOBS] on the reference machine (2-vCPU Xeon at
# 2.1 GHz, idle). It is re-timed before and after every sample, except
# that a timing younger than CAL_EVERY_S is reused: the timing after one
# sample serves as the timing before the next, and very short samples
# share one. The host speed can jump by 1.5x from one second to the
# next, so timing around every sample halves the run-to-run spread of
# zone-sharded against re-timing every 2 s.
CAL_JOBS = {"zone-sharded": 2, "quantd-mix": 2, "smoke": 2}
CAL_REF_S = {1: 0.118, 2: 0.139}
CAL_EVERY_S = 0.3
EXPERIMENTS = ["e1", "e2", "e3", "e4", "e5", "e6"]
QUERIES = {"zone-seq": 4, "zone-sharded": 2, "paper-suite": 3, "smoke": 4}
STREAM_LEN = 500  # quantd-mix requests per daemon
SMOKE_REQUESTS = 50
BLOCK = 100  # each block of the stream holds the whole request mix
DAEMON_JOBS = 2  # pool domains of each daemon; the client opens as many connections
REPLY_TIMEOUT_S = 60.0


class Failed(Exception):
    """The benchmark cannot run here (not at a repository root, or the
    build failed). Nothing was measured or checked."""


class Stop(Exception):
    """A sample process or the daemon died or answered garbage. main
    counts it as a failed check, stops measuring and still prints the
    result line."""


class Tally:
    """Checks attempted and the ones that failed, with a reason each."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def load_json(path):
    with open(path) as f:
        return json.load(f)


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, p):
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1]


# --------------------------------------------------------------------------
# Processes


class Proc:
    """A spawned sample process: stdout lines with arrival times, then
    rusage from wait4 (peak RSS and CPU of that process alone)."""

    def __init__(self, argv):
        self.t0 = time.perf_counter()
        self.p = subprocess.Popen(
            argv, cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        self.lines = []

    def readline(self):
        raw = self.p.stdout.readline()
        if not raw:
            return None
        line = raw.decode(errors="replace").rstrip("\n")
        self.lines.append((time.perf_counter(), line))
        return line

    def read_all(self):
        while self.readline() is not None:
            pass

    def reap(self):
        """Wait for exit; returns (exit code, wall since spawn, rusage)."""
        self.p.stdout.close()
        _, status, ru = os.wait4(self.p.pid, 0)
        self.p.returncode = os.waitstatus_to_exitcode(status)
        return self.p.returncode, time.perf_counter() - self.t0, ru

    def kill(self):
        if self.p.returncode is None:
            self.p.kill()
            self.reap()


def rss_mb(ru):
    return ru.ru_maxrss / 1024.0


def cpu_s(ru):
    return ru.ru_utime + ru.ru_stime


def worker(mode, workload, *extra):
    """Run perfbench/worker.exe to completion. Returns the ready time,
    the JSON lines after it with their arrival times, and the process
    accounting."""
    proc = Proc([WORKER, mode, workload, *extra])
    proc.read_all()
    code, lifetime, ru = proc.reap()
    ready = [(t, l) for t, l in proc.lines if l.startswith("ready ")]
    if code != 0 or len(ready) != 1:
        raise Stop(f"worker {mode} {workload} exited {code}: "
                   + " | ".join(l for _, l in proc.lines[-5:]))
    t_ready, line = ready[0]
    rows = [(t, json.loads(l)) for t, l in proc.lines if l.startswith("{")]
    return {
        "setup_s": t_ready - proc.t0,
        "build_s": json.loads(line[len("ready "):])["build_s"],
        "t_ready": t_ready,
        "rows": rows,
        "lifetime_s": lifetime,
        "rss_mb": rss_mb(ru),
        "cpu_s": cpu_s(ru),
    }


_speed = {"at": float("-inf"), "scale": 1.0, "log": [], "jobs": 1}


def speed():
    """How much faster the host runs than the reference machine right
    now (< 1 when it runs slow), from the calibration kernel. End-to-end
    times are multiplied by it: they read as seconds on the reference
    machine, and speed drift of a shared host cancels out of them."""
    if time.perf_counter() - _speed["at"] > CAL_EVERY_S:
        jobs = _speed["jobs"]
        proc = Proc([WORKER, "calibrate", str(jobs)])
        proc.read_all()
        code, _, _ = proc.reap()
        if code != 0:
            raise Stop(f"worker calibrate exited {code}")
        _speed["scale"] = CAL_REF_S[jobs] / json.loads(proc.lines[-1][1])["calibrate_s"]
        _speed["at"] = time.perf_counter()
        _speed["log"].append(_speed["scale"])
    return _speed["scale"]


def bracketed(f):
    """f() and the mean host speed over it, timed before and after."""
    before = speed()
    r = f()
    return r, (before + speed()) / 2.0


def setup_probes(workload):
    scale = speed()
    probes = [worker("setup", workload) for _ in range(SETUP_PROBES)]
    for p in probes:
        p["setup_s"] *= scale
        p["build_s"] *= scale
    return probes


def check_verdict(tally, expected, name, holds):
    want = expected["verdicts"].get(name)
    tally.check(want is not None and holds == want,
                f"{name}: holds={holds}, expected {want}")


# --------------------------------------------------------------------------
# zone-seq / zone-sharded / the E1 part of paper-suite: worker.exe queries


def zone_sample(tally, expected, workload, order):
    """One pass over the workload's queries in the given order, each a
    one-shot check in a fresh worker timed against the host speed
    around it. Its wall time is the sum of the queries' ready-to-verdict
    times, its peak RSS the largest of the workers'."""
    latencies, rss = {}, []
    for i in order:
        s, scale = bracketed(lambda: worker("run", workload, str(i)))
        if len(s["rows"]) != 1:
            raise Stop(f"{workload} query {i}: no verdict")
        t, row = s["rows"][0]
        check_verdict(tally, expected, row["query"], row["holds"])
        latencies[row["query"]] = (t - s["t_ready"]) * scale
        rss.append(s["rss_mb"])
    return {"wall_s": sum(latencies.values()), "rss_mb": max(rss), "latencies": latencies}


def kind_medians(samples, kind, value):
    """Median latency of each request kind. The batch workloads repeat
    the same deterministic queries, so spread within a kind is host
    noise, not behaviour of the system: their latency percentiles are
    taken over the kinds' medians (one value per kind)."""
    by_kind = {}
    for s in samples:
        by_kind.setdefault(kind(s), []).append(value(s))
    return [median(v) for v in by_kind.values()]


def zone_run(args, tally, expected, raw):
    workload, n = args.workload, QUERIES[args.workload]
    rng = random.Random(args.seed)
    probes = setup_probes(workload)
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < args.seconds:
        samples.append(zone_sample(tally, expected, workload, rng.sample(range(n), n)))
    raw["samples"] = samples
    queries = [(q, x) for s in samples for q, x in s["latencies"].items()]
    wall = median([s["wall_s"] for s in samples])
    return {
        "setup_s": median([p["setup_s"] for p in probes]),
        "wall_s": wall,
        "peak_rss_mb": median([s["rss_mb"] for s in samples]),
        "latencies": kind_medians(queries, lambda q: q[0], lambda q: q[1]),
        "requests_per_s": n / wall,
    }


def zone_trace(args, tally, expected, raw):
    """Pairs of an untraced sample and a traced one (fresh processes
    both), for as long as --seconds allows; per-metric medians."""
    workload, n = args.workload, QUERIES[args.workload]
    probes = setup_probes(workload)
    build_s = median([p["build_s"] for p in probes])
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        ref = zone_sample(tally, expected, workload, range(n))
        t, scale = bracketed(lambda: worker("trace", workload))
        if not t["rows"]:
            raise Stop(f"{workload}: the traced sample printed no metrics")
        out = t["rows"][-1][1]
        for v in out["verdicts"]:
            check_verdict(tally, expected, v["query"], v["holds"])
        tally.check(not out["mismatches"], f"traced rebuild != checker: {out['mismatches']}")
        m = dict(out["metrics"])
        m["trace.wall_s"] *= scale
        m["trace.busy_s"] *= scale
        m["trace.overhead_ratio"] = out["zone_traced_s"] * scale / ref["wall_s"] - 1.0
        m["proc.cpu_s"] = t["cpu_s"] * scale
        m["proc.cpu_util"] = t["cpu_s"] / t["lifetime_s"]
        m["ta.model.build_s"] = build_s
        if workload == "paper-suite":
            m.update(paper_shares(tally, expected, raw))
        rounds.append(m)
    raw["rounds"] = rounds
    return {k: median([r[k] for r in rounds]) for k in rounds[0]}


# --------------------------------------------------------------------------
# paper-suite: bench/main.exe, one experiment per fresh process


def check_cdf(tally, what, out, spec):
    rows = [[float(x) for x in m.group(1).split()]
            for m in re.finditer(r"^Train \d((?: +\d+\.\d+)+)$", out, re.M)]
    ok = len(rows) == spec["rows"] and all(
        r[0] == spec["first"] and r[-1] >= spec["last_min"]
        and all(a <= b for a, b in zip(r, r[1:])) for r in rows)
    col = [r[spec["ordered_column"]] for r in rows] if ok else []
    ok = ok and all(a < b for a, b in zip(col, col[1:]))
    tally.check(ok, f"{what}: got {rows}")


def check_paper_output(tally, checks, exp, out):
    for c in checks:
        what = f"{exp}: {c['what']}"
        if "cdf" in c:
            check_cdf(tally, what, out, c["cdf"])
            continue
        m = re.search(c["re"], out, re.M)
        if "value" not in c or not m:
            tally.check(m is not None, f"{what}: no line matches {c['re']!r}")
            continue
        try:
            got = float(m.group(1))
        except ValueError:
            tally.check(False, f"{what}: {m.group(1)!r} is not a number")
            continue
        tol = c.get("abs", c.get("rel", 0.0) * abs(c["value"]))
        tally.check(abs(got - c["value"]) <= tol,
                    f"{what}: {got} not within {tol} of {c['value']}")


def paper_sample(tally, expected, exp):
    def run():
        proc = Proc([PAPER, exp])
        proc.read_all()
        return proc, proc.reap()

    (proc, (code, wall, ru)), scale = bracketed(run)
    out = "\n".join(l for _, l in proc.lines)
    tally.check(code == 0, f"bench/main.exe {exp} exited {code}")
    check_paper_output(tally, expected["paper"][exp], exp, out)
    return {"exp": exp, "wall_s": wall * scale, "rss_mb": rss_mb(ru), "scale": scale}


def paper_run(args, tally, expected, raw):
    rng = random.Random(args.seed)
    probes = setup_probes("paper-suite")
    samples = []
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < args.seconds:
        samples += [paper_sample(tally, expected, e) for e in rng.sample(EXPERIMENTS, 6)]
    raw["samples"] = samples
    walls = kind_medians(samples, lambda s: s["exp"], lambda s: s["wall_s"])
    return {
        "setup_s": median([p["setup_s"] for p in probes]),
        "wall_s": sum(walls),
        "peak_rss_mb": max(kind_medians(samples, lambda s: s["exp"], lambda s: s["rss_mb"])),
        "latencies": walls,
        "requests_per_s": len(walls) / sum(walls),
    }


def paper_shares(tally, expected, raw):
    samples = [paper_sample(tally, expected, e) for e in EXPERIMENTS]
    raw.setdefault("paper_samples", []).append(samples)
    total = sum(s["wall_s"] for s in samples)
    return {f"paper.{s['exp']}_share": s["wall_s"] / total for s in samples}


# --------------------------------------------------------------------------
# quantd-mix: fresh daemons driven by a closed-loop client


FINGERPRINTS = [
    {"model": m, "n": n, "stats_json": sj, "jobs": j}
    for m in ("fischer", "train-gate") for n in (3, 4)
    for sj in (False, True) for j in (0, 1, 2)]
SMC_KINDS = [(m, t) for m in ("fischer", "train-gate") for t in (2, 3)]


def request_stream(seed):
    """The seeded request stream every daemon of a run answers. Every
    block of 100 holds exactly 63 fresh smc requests, 10 repeats of an
    earlier smc request (reply-cache hits), 25 checks and 2 modes
    requests, in seeded order; checks cycle through the 24 fingerprints
    in a seeded order, so each misses once and hits after that. The
    shares are synthetic: no recorded quantd traffic exists to take
    them from."""
    rng = random.Random(seed)
    fps = rng.sample(FINGERPRINTS, len(FINGERPRINTS))
    stream, smc, checks = [], [], 0
    for _ in range(STREAM_LEN // BLOCK):
        block = ["smc"] * 63 + ["repeat"] * 10 + ["check"] * 25 + ["modes"] * 2
        rng.shuffle(block)
        for kind in block:
            if kind == "repeat" and not smc:
                kind = "smc"
            if kind == "smc":
                model, trains = SMC_KINDS[len(smc) % len(SMC_KINDS)]
                params = {"model": model, "trains": trains, "runs": 300,
                          "seed": rng.randrange(1, 1 << 30)}
                smc.append(params)
                stream.append(("smc", "smc", params))
            elif kind == "repeat":
                stream.append(("repeat", "smc", rng.choice(smc)))
            elif kind == "check":
                fp = fps[checks % len(fps)]
                stream.append(("check_miss" if checks < len(fps) else "check_hit",
                               "check", fp))
                checks += 1
            else:
                stream.append(("modes", "modes",
                               {"runs": 1000, "seed": rng.randrange(1, 1 << 30)}))
    return stream


class Daemon:
    """A fresh quantd. Ready once it answers a ping on its socket."""

    seq = 0

    def __init__(self, tally, traced=False):
        Daemon.seq += 1
        self.tally = tally
        # Relative path: sun_path holds ~100 bytes, checkouts can be deep.
        self.sock = os.path.join("perfbench", "results",
                                 f"quantd-{os.getpid()}-{Daemon.seq}.sock")
        argv = [QUANTD, "--socket", self.sock, "--jobs", str(DAEMON_JOBS)]
        if traced:
            # --slow-ms switches the flight recorder on; the threshold is
            # never reached, so nothing is captured.
            argv += ["--slow-ms", "1e12", "--slow-trace-dir", RESULTS]
        self.proc = Proc(argv)
        self.conns = []
        try:
            line = self.proc.readline()
            if line is None or not line.startswith("quantd: listening"):
                raise Stop(f"quantd did not start: {line}")
            self.conns = [self.connect() for _ in range(DAEMON_JOBS)]
            self.call(self.conns[0], "ping", {})
        except BaseException:
            self.proc.kill()
            raise
        self.setup_s = time.perf_counter() - self.proc.t0

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock)
        return s

    def call(self, conn, meth, params):
        conn.sendall((json.dumps({"v": 1, "id": 0, "method": meth,
                                  "params": params}) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            r, _, _ = select.select([conn], [], [], REPLY_TIMEOUT_S)
            chunk = conn.recv(1 << 20) if r else b""
            if not chunk:
                raise Stop(f"quantd: no reply to {meth}")
            buf += chunk
        reply = json.loads(buf)
        if not reply.get("ok"):
            raise Stop(f"quantd {meth}: {reply.get('error')}")
        return reply["result"]

    def drive(self, stream):
        """Closed loop: each connection keeps one request in flight and
        sends the next stream entry as soon as its reply lands."""
        latencies = [0.0] * len(stream)
        replies = [None] * len(stream)
        pending, bufs, nxt = {}, {c: b"" for c in self.conns}, 0

        def send(conn):
            nonlocal nxt
            if nxt < len(stream):
                _, meth, params = stream[nxt]
                line = json.dumps({"v": 1, "id": nxt, "method": meth, "params": params})
                pending[conn] = (nxt, time.perf_counter())
                conn.sendall((line + "\n").encode())
                nxt += 1

        t0 = time.perf_counter()
        for c in self.conns:
            send(c)
        while pending:
            ready, _, _ = select.select(list(pending), [], [], REPLY_TIMEOUT_S)
            if not ready:
                raise Stop("quantd: reply timeout")
            for c in ready:
                chunk = c.recv(1 << 20)
                if not chunk:
                    raise Stop("quantd closed a connection")
                bufs[c] += chunk
                if bufs[c].endswith(b"\n"):
                    i, sent = pending.pop(c)
                    latencies[i] = time.perf_counter() - sent
                    replies[i] = json.loads(bufs[c])
                    bufs[c] = b""
                    send(c)
        return time.perf_counter() - t0, latencies, replies

    def stop(self):
        for c in self.conns:
            c.close()
        # os.kill, not Popen.send_signal: that polls, and would reap a
        # daemon that already died before reap() gets its rusage.
        os.kill(self.proc.p.pid, signal.SIGTERM)
        self.proc.read_all()
        code, _, ru = self.proc.reap()
        self.tally.check(code == 0, f"quantd exited {code} on SIGTERM")
        return ru


def check_replies(tally, expected, stream, replies):
    first = {}
    for (kind, meth, params), reply in zip(stream, replies):
        tag = f"{meth} {json.dumps(params, sort_keys=True)}"
        if not tally.check(reply.get("ok") is True, f"{tag}: {reply.get('error')}"):
            continue
        result = reply["result"]
        key = json.dumps([meth, params], sort_keys=True)
        if key in first:
            tally.check(result == first[key], f"{tag}: repeat reply differs")
            continue
        first[key] = result
        if meth == "check":
            for q in result["queries"]:
                check_verdict(tally, expected, f"{params['model']}-{params['n']}/{q['name']}",
                              q["holds"])
        elif meth == "modes":
            m = re.match(r"TA1 (\d+)/(\d+) TA2 (\d+)/(\d+) PA 0 PB 0 ", result["text"])
            tally.check(m is not None and len(set(m.groups())) == 1
                        and m.group(1) == str(params["runs"]),
                        f"{tag}: modes BRP row {result['text']!r}")
        elif params["model"] == "fischer":
            itvs = result["intervals"]
            tally.check(len(itvs) == params["trains"] and all(
                0.0 <= i["low"] <= i["p"] <= i["high"] <= 1.0 for i in itvs),
                f"{tag}: intervals {itvs}")
        else:
            rows = [[float(x.split(":")[1]) for x in l.split()[2:]]
                    for l in result["text"].splitlines()]
            tally.check(len(rows) == params["trains"] and all(
                r[0] == 0.0 and all(a <= b <= 1.0 for a, b in zip(r, r[1:]))
                for r in rows), f"{tag}: CDF rows {rows}")


def daemon_run(tally, expected, stream, traced=False):
    """A fresh daemon answers the stream one block at a time. Each block
    is timed against the host speed around it; the daemon idles while
    the kernel is timed. `scale` is the run's time-weighted speed."""
    d = Daemon(tally, traced)
    blocks = []
    try:
        for i in range(0, len(stream), BLOCK):
            blocks.append(bracketed(lambda: d.drive(stream[i:i + BLOCK])))
        scrape = d.call(d.conns[0], "metrics", {}) if traced else None
    finally:
        ru = d.stop()
    check_replies(tally, expected, stream, [r for (_, _, rs), _ in blocks for r in rs])
    wall = sum(w * s for (w, _, _), s in blocks)
    return {"wall_s": wall, "scale": wall / sum(w for (w, _, _), _ in blocks),
            "latencies": [x * s for (_, lat, _), s in blocks for x in lat],
            "classes": [k for k, _, _ in stream], "rss_mb": rss_mb(ru),
            "cpu_s": cpu_s(ru), "scrape": scrape}


def quantd_run(args, tally, expected, raw):
    stream = request_stream(args.seed)
    probes, scale = [], speed()
    for _ in range(SETUP_PROBES):
        d = Daemon(tally)
        d.stop()
        probes.append(d.setup_s * scale)
    runs = []
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < args.seconds:
        runs.append(daemon_run(tally, expected, stream))
    raw["daemons"] = runs
    return {
        "setup_s": median(probes),
        "wall_s": median([r["wall_s"] for r in runs]),
        "peak_rss_mb": median([r["rss_mb"] for r in runs]),
        "latencies": [x for r in runs for x in r["latencies"]],
        "requests_per_s": median([len(stream) / r["wall_s"] for r in runs]),
    }


def quantd_layers(run, ref_wall):
    """Per-layer metrics of one traced daemon run, from its metrics
    scrape and the client's per-class latencies."""
    sc = run["scrape"]
    counter = lambda k: sc["metrics"].get(k, {}).get("value", 0)
    span = lambda k: sc["spans"].get(k, {}).get("total_s", 0.0)
    phase = lambda k: sc.get("phases", {}).get(k, {}).get("total_s", 0.0)
    ratio = lambda a, b: a / b if b else 0.0
    busy = sum(v["total_s"] for k, v in sc["spans"].items() if k.startswith("serve."))
    lat_total = sum(run["latencies"])
    by_class = lambda *ks: ratio(sum(l for l, c in zip(run["latencies"], run["classes"])
                                     if c in ks), lat_total)
    gc = sc["gc"]
    sent = run["classes"]
    return {
        "trace.wall_s": run["wall_s"],
        "trace.busy_s": busy * run["scale"],
        "trace.overhead_ratio": run["wall_s"] / ref_wall - 1.0,
        "proc.cpu_s": run["cpu_s"] * run["scale"],
        "proc.cpu_util": run["cpu_s"] * run["scale"] / run["wall_s"],
        "gc.top_heap_mb": gc["top_heap_words"] * 8 / 1048576.0,
        "gc.major_collections": gc["major_collections"],
        "gc.minor_mwords": gc["minor_words"] / 1e6,
        "zones.dbm.extrapolate_share": ratio(phase("dbm.extrapolate"), busy),
        "zones.dbm.seal_share": ratio(phase("dbm.seal"), busy),
        "zones.dbm.intern_size": sc["serve"]["dbm_intern_size"],
        "engine.codec.pack_share": ratio(phase("codec.encode"), busy),
        "engine.store.probe_share": ratio(phase("store.probe"), busy),
        "engine.store.subsume_share": ratio(phase("store.subsume") - phase("store.insert"), busy),
        "engine.store.insert_share": ratio(phase("store.insert"), busy),
        "engine.store.dropped": counter("engine.dropped"),
        "engine.core.visited": counter("engine.visited"),
        "engine.core.frontier_share": ratio(phase("engine.frontier_pop"), busy),
        "par.rounds": counter("par.shard_rounds"),
        "par.steals": counter("par.steals"),
        "par.merge_share": ratio(phase("engine.shard_merge"), busy),
        "par.expand_share": ratio(phase("engine.shard_expand"), busy),
        "smc.sample_share": ratio(span("smc.batch_fused"), busy),
        "smc.runs_per_s": ratio(counter("smc.samples"), span("smc.batch_fused")),
        "modes.sim_share": ratio(span("modes.batch"), busy),
        "modes.runs_per_s": ratio(counter("modes.runs"), span("modes.batch")),
        "serve.smc_share": by_class("smc"),
        "serve.hit_share": by_class("repeat", "check_hit"),
        "serve.check_miss_share": by_class("check_miss"),
        "serve.modes_share": by_class("modes"),
        "serve.compute_share": ratio(busy * run["scale"], run["wall_s"]),
        "serve.reply_hit_ratio": ratio(counter("serve.reply_hits"),
                                       counter("serve.reply_hits") + counter("serve.reply_misses")),
        "serve.model_hit_ratio": ratio(counter("serve.model_hits"),
                                       counter("serve.model_hits") + counter("serve.model_misses")),
        "serve.smc_fused_ratio": ratio(counter("serve.smc_fused_requests"), sent.count("smc")),
        "serve.smc_batches": counter("serve.smc_batches"),
        "serve.registry_words": sc["serve"]["cache_words"],
        "serve.errors": counter("serve.errors"),
    }


def quantd_trace(args, tally, expected, raw):
    stream = request_stream(args.seed)
    build_s = median([p["build_s"] for p in setup_probes("quantd-mix")])
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        ref = daemon_run(tally, expected, stream)
        m = quantd_layers(daemon_run(tally, expected, stream, traced=True), ref["wall_s"])
        m["ta.model.build_s"] = build_s
        rounds.append(m)
    raw["rounds"] = rounds
    return {k: median([r[k] for r in rounds]) for k in rounds[0]}


def smoke_run(args, tally, expected, raw):
    """Every workload's code path on small inputs, with every output
    checked, in a few seconds: query samples and the traced rebuild with
    its self-check on fischer-3 and fischer-4 at jobs=2, E1, and a fresh
    daemon answering the first SMOKE_REQUESTS requests of the quantd-mix
    stream. Its metrics are those of the query samples."""
    measured = zone_run(args, tally, expected, raw)
    measured.update(zone_trace(args, tally, expected, raw))
    paper_sample(tally, expected, "e1")
    daemon_run(tally, expected, request_stream(args.seed)[:SMOKE_REQUESTS])
    return measured


# --------------------------------------------------------------------------


WORKLOADS = {
    "zone-seq": (zone_run, zone_trace),
    "zone-sharded": (zone_run, zone_trace),
    "paper-suite": (paper_run, zone_trace),
    "quantd-mix": (quantd_run, quantd_trace),
    "smoke": (smoke_run, smoke_run),
}


def build():
    for path in ("dune-project", "lib", "bin", "bench", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, path)):
            raise Failed(f"run from the repository root: {path} is missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "./perfbench/worker.exe", "./bin/quantd.exe", "./bench/main.exe"],
        cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise Failed("dune build failed:\n" + r.stdout.decode(errors="replace"))


def end_to_end(m):
    lat_ms = [x * 1000.0 for x in m["latencies"]]
    return {
        "setup_s": m["setup_s"],
        "wall_s": m["wall_s"],
        "peak_rss_mb": m["peak_rss_mb"],
        "request_p50_ms": percentile(lat_ms, 50),
        "request_p99_ms": percentile(lat_ms, 99),
        "requests_per_s": m["requests_per_s"],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    tally, raw = Tally(), {}
    _speed.update(at=float("-inf"), log=[], jobs=CAL_JOBS.get(args.workload, 1))
    try:
        build()
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        expected = {name: load_json(os.path.join(EXPECTED, name + ".json"))
                    for name in ("verdicts", "paper")}
        os.makedirs(RESULTS, exist_ok=True)
    except (Failed, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    measured = None
    try:
        measured = WORKLOADS[args.workload][args.trace](args, tally, expected, raw)
    except (Stop, OSError, ValueError, KeyError) as e:
        # A process that dies or answers garbage is a failed check.
        tally.check(False, f"measuring stopped: {type(e).__name__}: {e}")
    if measured is None:
        wanted, values = [], {}
    elif args.trace:
        wanted = spec["per_layer"]
        # A layer the workload never reaches reads 0; times are always measured.
        values = {w["name"]: measured.get(w["name"], 0) for w in wanted}
        missing = [w["name"] for w in wanted
                   if w["unit"] in ("s", "ms") and w["name"] not in measured]
        if missing:
            tally.check(False, f"unmeasured per-layer times: {missing}")
    else:
        wanted = spec["end_to_end"]
        values = end_to_end(measured)
    metrics = {w["name"]: {"value": values[w["name"]], "unit": w["unit"]}
               for w in wanted}
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']} {m['unit']}")
    for f in tally.failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    result = {"correct": not tally.failures, "attempted": max(tally.attempted, 1),
              "failed": len(tally.failures), "metrics": metrics}
    with open(os.path.join(RESULTS, "latest.json"), "w") as f:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "cores": os.cpu_count(), "speed": _speed["log"], "result": result,
                   "raw": raw}, f, default=str)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
