#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the routing simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The script builds
`bin/routing_sim.exe` and the in-process mirror `perfbench/trace/trace.exe`
with dune, then repeats passes of the named workload until `--seconds` have
been measured. With `--trace 0` it drives the user-facing CLI as
subprocesses and reports the end-to-end metrics; with `--trace 1` it runs
the in-process mirror, which times calls into each layer and writes the
spans as JSONL under `.bench_out/`. Every output is checked: exit codes,
protocol replies, packet conservation, pass-to-pass determinism, and at the
default seed the MD5 digests in `perfbench/expected.txt`. The last line of
standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import random
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = ".bench_work"  # scratch for one run, relative to ROOT; deleted at exit
OUT = ".bench_out"  # span files and full results; kept
CLI = "_build/default/bin/routing_sim.exe"
MIRROR = "_build/default/perfbench/trace/trace.exe"
EXPECTED = os.path.join(HERE, "expected.txt")

DEFAULT_SEED = 1  # the seed perfbench/expected.txt holds digests for
SETUPS = 11  # set-ups per run; setup_s is their median
RUN_LIMIT = 170  # seconds after the build before a run gives up

# paper-horizon: the operating points of the paper's theorems (Thm 1
# Orchestra at rate 1, Thm 3 Count-Hop, Thm 5/7/8 the oblivious families)
# and of the sibling papers (Adjust-Window, pair-TDMA baseline, MBTF). All
# but pair-TDMA run in the dense loop, so this workload prices a round.
# Labels prefix the per-layer metrics of each point.
PAPER_ROUNDS = 200_000
PAPER_POINTS = [
    ("core.orchestra", "-a orchestra -n 8 -k 3 --rate 1 -p flood:2"),
    ("core.count_hop", "-a count-hop -n 8 -k 2 --rate 4/5"),
    ("core.adjust_window", "-a adjust-window -n 4 -k 2 --rate 1/2"),
    ("core.k_cycle", "-a k-cycle -n 12 -k 4 --rate 13/100"),
    ("core.k_clique", "-a k-clique -n 12 -k 4 --rate 3/100"),
    ("core.k_subsets", "-a k-subsets -n 8 -k 3 --rate 1/10 -p pair:1:2"),
    ("core.pair_tdma", "-a pair-tdma -n 8 -k 2 --rate 3/100"),
    ("broadcast.mbtf", "-a mbtf -n 8 -k 8 --rate 1"),
]
PAPER_LAYER = ["ns_per_round", "minor_words_per_round"]

# huge-horizon: the skip-dominated regime of the sparse engine. Cost
# scales with admissions, not rounds; n = 10^5 stresses per-station set-up
# and a queue that grows for the whole run. That point injects round-robin
# rather than uniformly: under the uniform pattern its cost per admission
# varies twofold with the seed, which would swamp the run-to-run spread.
HUGE_POINTS = [
    ("pair_tdma_n16", "-a pair-tdma -n 16 -k 2 --rate 1/1000", 500_000_000),
    ("ack_rr_n64", "-a ack-rr -n 64 -k 2 --rate 1/100", 15_000_000),
    ("pair_tdma_n100000",
     "-a pair-tdma -n 100000 -k 2 --rate 3/100 -p round-robin", 2_500_000),
]
HUGE_LAYER = ["sim.engine.skip_share", "adversary.ns_per_admission",
              "sim.engine.start_ms"]
# Client-side serve metrics, measured by this script's protocol client.
SERVE_LAYER = ["serve.open_ms", "serve.inject.p50_ms", "serve.inject.p99_ms",
               "serve.step.p50_ms", "serve.step.p99_ms",
               "serve.window.p99_ms", "serve.run_ms"]

# serve-replay: a closed loop of 2 connections x 2 channels against
# `routing_sim serve --shards 2`. Per window each channel gets one inject
# of SERVE_PACKETS seeded packets due inside the window, then one step.
SERVE_CHANNELS = 4
SERVE_CONNS = 2
SERVE_N = 16
SERVE_WINDOW = 400
SERVE_WINDOWS = 250
SERVE_PACKETS = 160
SERVE_DRAIN = 2000
SERVE_OPEN = {
    "algorithm": "count-hop", "n": SERVE_N, "k": 2, "rate": "1/2",
    "burst": "2", "rounds": SERVE_WINDOW * SERVE_WINDOWS,
    "drain": SERVE_DRAIN, "pattern": "external",
}

WORKLOADS = ["catalog", "paper-horizon", "huge-horizon", "serve-replay"]


class BenchError(Exception):
    """The benchmark cannot run at all (no checkout, build failure)."""


class Ledger:
    """Counts operations attempted and failed, with one line per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def md5_bytes(b):
    return hashlib.md5(b).hexdigest()


def md5_file(path):
    h = hashlib.md5()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pct(xs, q):
    """Nearest-rank percentile."""
    s = sorted(xs)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def load_expected():
    table = {}
    with open(EXPECTED) as f:
        for line in f:
            line = line.strip()
            if line and not line.startswith("#"):
                workload, key, digest = line.split()
                table[(workload, key)] = digest
    return table


def check_digest(ledger, expected, workload, seed, key, digest):
    """Compare against the committed digest (default seed only)."""
    if seed != DEFAULT_SEED:
        return
    want = expected.get((workload, key))
    ledger.op(want == digest,
              f"{workload} {key}: digest {digest}, expected {want}")


def conserved(summary):
    """injected = delivered + still queued + lost to crashes."""
    return summary["injected"] == (
        summary["delivered"] + summary["final_total_queue"]
        + summary["faults"]["lost_to_crash"])


# --- build and child processes ------------------------------------------------


def build():
    for f in ("dune-project", "bin/routing_sim.ml", "BENCHMARK.json"):
        if not os.path.isfile(f):
            raise BenchError(f"{f} not found: run from a source checkout")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    env = dict(os.environ, DUNE_CACHE="disabled")
    argv = dune + ["build", "--root", ".", CLI.replace("_build/default/", ""),
                   MIRROR.replace("_build/default/", "")]
    try:
        r = subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise BenchError(f"build failed: {e}")
    if r.returncode != 0 or not os.path.isfile(CLI):
        raise BenchError(f"build failed (exit {r.returncode})")


LIVE = []  # children not yet reaped, killed if the run fails


def on_alarm(signum, frame):
    raise BenchError(f"run exceeded {RUN_LIMIT} s")


class Child:
    """A subprocess whose exit is collected with wait4, which yields the
    peak resident set (VmHWM) of exactly that process."""

    def __init__(self, argv, log_path):
        self.log = open(log_path, "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        LIVE.append(self)
        self.code = None
        self.seconds = None
        self.rss_mb = None

    def kill(self):
        if self.code is None:
            self.proc.kill()

    def _reaped(self, status, ru):
        self.seconds = time.perf_counter() - self.t0
        self.code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.code
        self.rss_mb = ru.ru_maxrss / 1024.0
        self.log.close()
        LIVE.remove(self)

    def exited(self):
        if self.code is None:
            pid, status, ru = os.wait4(self.proc.pid, os.WNOHANG)
            if pid != 0:
                self._reaped(status, ru)
        return self.code is not None

    def wait(self):
        if self.code is None:
            _, status, ru = os.wait4(self.proc.pid, 0)
            self._reaped(status, ru)
        return self.code


def run_cli(args, log_path):
    c = Child([CLI] + args, log_path)
    c.wait()
    return c


def last_line(path):
    with open(path, "rb") as f:
        lines = f.read().decode(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


# --- batch workloads ----------------------------------------------------------


class Pass:
    """One pass of a workload: its latency samples and output totals."""

    def __init__(self):
        self.ops_ms = []  # latency of each timed operation
        self.seconds = 0.0  # the timed interval
        self.wall = 0.0  # the whole pass, checks included
        self.rounds = 0
        self.delivered = 0
        self.rss_mb = 0.0
        self.digests = {}


def catalog_setup(ledger, seed):
    c = run_cli(["list"], os.path.join(WORK, "list.out"))
    ledger.op(c.code == 0, f"routing_sim list exited {c.code}")
    return c.seconds


def catalog_pass(ledger, seed, expected):
    p = Pass()
    t1, mj, mc = (os.path.join(WORK, f) for f in
                  ("table1.json", "matrix.json", "matrix.csv"))
    runs = [
        ["table1", "--quick", "--jobs", "2", "--json", t1],
        ["matrix", "--quick", "--jobs", "2", "--json", mj, "--csv", mc],
    ]
    for args in runs:
        c = run_cli(args, os.path.join(WORK, "catalog.out"))
        ledger.op(c.code == 0, f"routing_sim {args[0]} exited {c.code}")
        p.seconds += c.seconds
        p.rss_mb = max(p.rss_mb, c.rss_mb)
    p.ops_ms.append(p.seconds * 1e3)
    rows = []
    for path in (t1, mj):
        try:
            with open(path) as f:
                rows += json.load(f)
        except (OSError, ValueError) as e:
            ledger.op(False, f"catalog output {path}: {e}")
    for r in rows:
        s = r["summary"]
        ledger.op(r["passed"], f"scenario {r['scenario']} did not pass")
        ledger.op(conserved(s), f"scenario {r['scenario']} not conserved")
        p.rounds += s["rounds"] + s["drain_rounds"]
        p.delivered += s["delivered"]
    for key, path in (("table1.json", t1), ("matrix.json", mj),
                      ("matrix.csv", mc)):
        if os.path.isfile(path):
            p.digests[key] = md5_file(path)
            # The catalog takes no seed: its digests hold at every seed.
            check_digest(ledger, expected, "catalog", DEFAULT_SEED, key,
                         p.digests[key])
    return p


def point_args(spec, rounds, seed):
    return ["run"] + spec.split() + [
        "--rounds", str(rounds), "--seed", str(seed), "--json"]


def horizon_points(workload):
    if workload == "paper-horizon":
        return [(label, spec, PAPER_ROUNDS) for label, spec in PAPER_POINTS]
    return HUGE_POINTS


def horizon_setup(workload):
    def setup(ledger, seed):
        total = 0.0
        for label, spec, _ in horizon_points(workload):
            c = run_cli(point_args(spec, 1, seed),
                        os.path.join(WORK, "setup.out"))
            ledger.op(c.code == 0, f"{label} --rounds 1 exited {c.code}")
            total += c.seconds
        return total
    return setup


def horizon_pass(workload):
    def one_pass(ledger, seed, expected):
        p = Pass()
        for label, spec, rounds in horizon_points(workload):
            out = os.path.join(WORK, f"{label}.out")
            c = run_cli(point_args(spec, rounds, seed), out)
            p.seconds += c.seconds
            p.rss_mb = max(p.rss_mb, c.rss_mb)
            if not ledger.op(c.code == 0, f"{label} exited {c.code}"):
                continue
            line = last_line(out)
            try:
                s = json.loads(line)
            except ValueError:
                ledger.op(False, f"{label}: no JSON summary")
                continue
            ledger.op(conserved(s), f"{label}: packets not conserved")
            p.rounds += s["rounds"] + s["drain_rounds"]
            p.delivered += s["delivered"]
            p.digests[label] = md5_bytes(line.encode())
            check_digest(ledger, expected, workload, seed, label,
                         p.digests[label])
        p.ops_ms.append(p.seconds * 1e3)
        return p
    return one_pass


# --- serve-replay -------------------------------------------------------------


def serve_packets(seed, channel):
    """Per window, SERVE_PACKETS uniform packets due inside the window,
    sorted by due round (the external queue is head-blocking)."""
    rng = random.Random(seed * 1000 + channel)
    windows = []
    for w in range(SERVE_WINDOWS):
        batch = []
        for _ in range(SERVE_PACKETS):
            at = w * SERVE_WINDOW + rng.randrange(SERVE_WINDOW)
            src = rng.randrange(SERVE_N)
            dst = rng.randrange(SERVE_N - 1)
            batch.append([at, src, dst + (dst >= src)])
        batch.sort(key=lambda t: t[0])
        windows.append(batch)
    return windows


class Conn:
    """One protocol connection: newline-delimited JSON, one reply per
    command."""

    def __init__(self, path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self.buf = b""

    def send(self, cmd):
        self.sock.sendall(json.dumps(cmd, separators=(",", ":")).encode()
                          + b"\n")

    def lines(self):
        """Complete reply lines available now (blocks for at least one
        read)."""
        data = self.sock.recv(1 << 16)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buf += data
        *done, self.buf = self.buf.split(b"\n")
        return done

    def request(self, cmd):
        self.send(cmd)
        while True:
            done = self.lines()
            if done:
                return json.loads(done[0])

    def close(self):
        self.sock.close()


class Daemon:
    """`routing_sim serve` in its own state directory."""

    def __init__(self, ledger, state):
        shutil.rmtree(state, ignore_errors=True)
        os.makedirs(state)
        self.ledger = ledger
        self.state = state
        self.sock_path = os.path.join(state, "s.sock")
        self.t0 = time.perf_counter()
        self.child = Child([CLI, "serve", "--dir", state, "--socket",
                            self.sock_path, "--shards", "2"],
                           os.path.join(WORK, "serve.log"))
        self.conns = []

    def connect(self):
        deadline = time.perf_counter() + 30.0
        while True:
            try:
                c = Conn(self.sock_path)
                self.conns.append(c)
                return c
            except (FileNotFoundError, ConnectionRefusedError):
                if self.child.exited() or time.perf_counter() > deadline:
                    raise BenchError("serve daemon did not come up")
                # Fine-grained: the daemon is up in about 2 ms.
                time.sleep(0.0001)

    def open_channels(self, latencies=None):
        """Connect and open every channel; returns the connections."""
        conns = [self.connect() for _ in range(SERVE_CONNS)]
        for ch in range(SERVE_CHANNELS):
            t = time.perf_counter()
            reply = conns[0].request(
                dict(SERVE_OPEN, cmd="open", channel=f"c{ch}"))
            if latencies is not None:
                latencies.append((time.perf_counter() - t) * 1e3)
            self.ledger.op(reply.get("ok") is True, f"open c{ch}: {reply}")
        return conns

    def drain(self):
        reply = self.conns[0].request({"cmd": "drain"})
        self.ledger.op(reply.get("ok") is True, f"drain: {reply}")
        code = self.child.wait()
        self.ledger.op(code == 4, f"serve exited {code}, expected 4")
        self.close()

    def close(self):
        for c in self.conns:
            c.close()
        self.conns = []
        if not self.child.exited():
            self.child.kill()
            self.child.wait()


def serve_setup(ledger, seed):
    d = Daemon(ledger, os.path.join(WORK, "setup"))
    try:
        d.open_channels()
        seconds = time.perf_counter() - d.t0
        d.drain()
    finally:
        d.close()
    return seconds


def closed_loop(ledger, conns, packets, by_kind):
    """Drive every channel through its windows, then `run` it; each
    connection sends its next command only after the previous reply.
    by_kind["window"] gets each window's latency, from sending its inject
    to the reply to its step."""
    scripts = []
    for i, conn in enumerate(conns):
        mine = [ch for ch in range(SERVE_CHANNELS) if ch % SERVE_CONNS == i]
        cmds = []
        for w in range(SERVE_WINDOWS):
            for ch in mine:
                cmds.append(("inject", {"cmd": "inject", "channel": f"c{ch}",
                                        "packets": packets[ch][w]}))
                cmds.append(("step", {"cmd": "step", "channel": f"c{ch}",
                                      "rounds": SERVE_WINDOW}))
        cmds += [("run", {"cmd": "run", "channel": f"c{ch}"}) for ch in mine]
        scripts.append(iter(cmds))
    summaries = {}
    sel = selectors.DefaultSelector()
    pending = {}
    window_start = {}

    def send_next(conn, script):
        nxt = next(script, None)
        if nxt is None:
            sel.unregister(conn.sock)
            return
        conn.send(nxt[1])
        pending[conn] = (nxt, time.perf_counter())
        if nxt[0] == "inject":
            window_start[conn] = pending[conn][1]

    for conn, script in zip(conns, scripts):
        sel.register(conn.sock, selectors.EVENT_READ, (conn, script))
        send_next(conn, script)
    while sel.get_map():
        for key, _ in sel.select():
            conn, script = key.data
            for line in conn.lines():
                (kind, cmd), t = pending.pop(conn)
                done = time.perf_counter()
                by_kind[kind].append((done - t) * 1e3)
                if kind == "step":
                    by_kind["window"].append((done - window_start[conn]) * 1e3)
                reply = json.loads(line)
                ok = ledger.op(reply.get("ok") is True,
                               f"{kind} {cmd['channel']}: {line[:200]}")
                if ok and kind == "run":
                    summaries[cmd["channel"]] = reply["summary"]
                send_next(conn, script)
    return summaries


def write_traces(packets, seed):
    """The injections as `run --inject` trace files, one per channel."""
    paths = []
    for ch in range(SERVE_CHANNELS):
        path = os.path.join(WORK, f"c{ch}.seed{seed}.trace")
        with open(path, "w") as f:
            for batch in packets[ch]:
                f.writelines(f"{a} {s} {d}\n" for a, s, d in batch)
        paths.append(path)
    return paths


def serve_as_run(trace):
    """A channel's configuration as `routing_sim run` arguments."""
    o = SERVE_OPEN
    return (f"-a {o['algorithm']} -n {o['n']} -k {o['k']} --rate {o['rate']} "
            f"--burst {o['burst']} --rounds {o['rounds']} --drain {o['drain']} "
            f"--inject {trace}")


def batch_equivalence(ledger, state, traces):
    """Serve ≡ batch: each channel's spool and summary equal a batch
    `run --inject` of the same trace, byte for byte."""
    for ch, trace in enumerate(traces):
        events = os.path.join(WORK, f"batch-c{ch}.events.jsonl")
        out = os.path.join(WORK, "batch.out")
        c = run_cli(["run"] + serve_as_run(trace).split()
                    + ["--events", events, "--json"], out)
        if not ledger.op(c.code == 0, f"batch replay c{ch} exited {c.code}"):
            continue
        spool = os.path.join(state, f"c{ch}.events.jsonl")
        summary = os.path.join(state, f"c{ch}.summary.json")
        ledger.op(md5_file(events) == md5_file(spool),
                  f"c{ch}: serve spool differs from the batch event stream")
        with open(summary) as f:
            ledger.op(f.read().strip() == last_line(out),
                      f"c{ch}: serve summary differs from the batch run")
        os.remove(events)


class ServeReplay:
    def __init__(self, seed):
        self.packets = [serve_packets(seed, ch)
                        for ch in range(SERVE_CHANNELS)]
        self.traces = write_traces(self.packets, seed)
        self.checked_batch = False
        self.by_kind = {"open": [], "inject": [], "step": [], "run": [],
                        "window": []}

    def one_pass(self, ledger, seed, expected):
        p = Pass()
        state = os.path.join(WORK, "serve")
        d = Daemon(ledger, state)
        try:
            conns = d.open_channels(self.by_kind["open"])
            by_kind = {"inject": [], "step": [], "run": [], "window": []}
            t0 = time.perf_counter()
            summaries = closed_loop(ledger, conns, self.packets, by_kind)
            p.seconds = time.perf_counter() - t0
            d.drain()
        finally:
            d.close()
        p.rss_mb = d.child.rss_mb or 0.0
        p.ops_ms = by_kind["window"]
        for kind, xs in by_kind.items():
            self.by_kind[kind] += xs
        for ch in range(SERVE_CHANNELS):
            s = summaries.get(f"c{ch}")
            if not ledger.op(s is not None, f"c{ch}: no summary"):
                continue
            ledger.op(conserved(s), f"c{ch}: packets not conserved")
            p.rounds += s["rounds"] + s["drain_rounds"]
            p.delivered += s["delivered"]
            for suffix in ("summary.json", "events.jsonl"):
                key = f"c{ch}.{suffix}"
                path = os.path.join(state, key)
                if ledger.op(os.path.isfile(path), f"{key} missing"):
                    p.digests[key] = md5_file(path)
                    check_digest(ledger, expected, "serve-replay", seed, key,
                                 p.digests[key])
        if not self.checked_batch:
            self.checked_batch = True
            batch_equivalence(ledger, state, self.traces)
        shutil.rmtree(state, ignore_errors=True)
        return p


# --- the run ------------------------------------------------------------------


def more_passes(passes, start, seconds):
    """Whether another pass ends nearer to `seconds` after `start` than
    stopping now does."""
    if not passes:
        return True
    return time.perf_counter() - start + passes[-1].wall / 2 < seconds


def measure(ledger, workload, seed, seconds, expected):
    """Set up SETUPS times, then repeat passes for `seconds`."""
    if workload == "serve-replay":
        replay = ServeReplay(seed)
        setup, one_pass = serve_setup, replay.one_pass
    elif workload == "catalog":
        setup, one_pass = catalog_setup, catalog_pass
    else:
        setup, one_pass = horizon_setup(workload), horizon_pass(workload)
    setups = [setup(ledger, seed) for _ in range(SETUPS)]
    passes = []
    start = time.perf_counter()
    while more_passes(passes, start, seconds):
        t = time.perf_counter()
        passes.append(one_pass(ledger, seed, expected))
        passes[-1].wall = time.perf_counter() - t
    for key in passes[0].digests:
        ledger.op(all(p.digests.get(key) == passes[0].digests[key]
                      for p in passes),
                  f"{key}: output differs between passes of one seed")
    ops = [x for p in passes for x in p.ops_ms]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(ops),
        "rounds_per_s": statistics.median(p.rounds / p.seconds
                                          for p in passes),
        "packets_per_s": statistics.median(p.delivered / p.seconds
                                           for p in passes),
        "peak_rss_mb": max(p.rss_mb for p in passes),
    }
    detail = {"passes": len(passes), "op_samples": len(ops),
              "setups": setups, "pass_seconds": [p.seconds for p in passes]}
    if workload == "serve-replay":
        detail["commands"] = {k: len(v) for k, v in replay.by_kind.items()}
    return metrics, detail


def mirror(ledger, workload, seed, seconds, expected, spans):
    """One checked pass through the CLI (and, for serve-replay, the
    daemon), then the in-process mirror for the rest of the run."""
    start = time.perf_counter()
    # Layers this workload does not cross read 0.
    metrics = {name: 0.0 for name in SERVE_LAYER}
    metrics.update({f"{label}.{m}": 0.0
                    for label, _ in PAPER_POINTS for m in PAPER_LAYER})
    metrics.update({f"{m}.{label}": 0.0
                    for label, _, _ in HUGE_POINTS for m in HUGE_LAYER})
    if workload == "serve-replay":
        replay = ServeReplay(seed)
        p = replay.one_pass(ledger, seed, expected)
        by = replay.by_kind
        for kind in ("inject", "step"):
            metrics[f"serve.{kind}.p50_ms"] = pct(by[kind], 0.5)
            metrics[f"serve.{kind}.p99_ms"] = pct(by[kind], 0.99)
        metrics["serve.window.p99_ms"] = pct(by["window"], 0.99)
        metrics["serve.open_ms"] = statistics.median(by["open"])
        metrics["serve.run_ms"] = statistics.median(by["run"])
        args = ["--window", str(SERVE_WINDOW)] + [
            f"c{ch}={serve_as_run(trace)}"
            for ch, trace in enumerate(replay.traces)]
    elif workload == "catalog":
        p = catalog_pass(ledger, seed, expected)
        args = []
    else:
        p = horizon_pass(workload)(ledger, seed, expected)
        args = [f"{label}={spec} --rounds {rounds}"
                for label, spec, rounds in horizon_points(workload)]
    left = max(1.0, seconds - (time.perf_counter() - start))
    out = os.path.join(WORK, "mirror.out")
    mirror_dir = os.path.join(WORK, "mirror")
    c = Child([MIRROR, "--workload", workload, "--seed", str(seed),
               "--seconds", f"{left:.3f}", "--spans", spans,
               "--dir", mirror_dir] + args, out)
    c.wait()
    if not ledger.op(c.code == 0, f"mirror exited {c.code}: {last_line(out)}"):
        raise BenchError("the in-process mirror failed")
    result = json.loads(last_line(out))
    ledger.attempted += result["attempted"]
    for what in result["failures"]:
        ledger.op(False, f"mirror: {what}")
    # The mirror did the same work as the CLI: every output matches.
    for key, digest in p.digests.items():
        ledger.op(result["digests"].get(key) == digest,
                  f"mirror {key}: digest {result['digests'].get(key)}, "
                  f"CLI gave {digest}")
    metrics.update(result["metrics"])
    print(f"spans: {spans}")
    return metrics, {"mirror_passes": result["passes"], "spans": spans}


def declared(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    os.chdir(ROOT)
    ledger = Ledger()
    try:
        build()
        signal.signal(signal.SIGALRM, on_alarm)
        signal.alarm(RUN_LIMIT)
        want = declared(args.trace)
        expected = load_expected()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        os.makedirs(OUT, exist_ok=True)
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            spans = os.path.join(OUT, f"spans-{tag}.jsonl")
            values, detail = mirror(ledger, args.workload, args.seed,
                                    args.seconds, expected, spans)
        else:
            values, detail = measure(ledger, args.workload, args.seed,
                                     args.seconds, expected)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        signal.alarm(0)
        for child in list(LIVE):
            child.kill()
            child.wait()
        shutil.rmtree(WORK, ignore_errors=True)
    # Metric names cannot drift from what BENCHMARK.json declares.
    if set(values) != set(want):
        log(f"perfbench: metrics {sorted(set(values) ^ set(want))} are "
            "emitted but not declared in BENCHMARK.json, or declared but "
            "not emitted")
        return 2
    metrics = {k: {"value": v, "unit": want[k]} for k, v in values.items()}
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump(dict(result, detail=detail, failures=ledger.failures), f,
                  indent=1)
    for k in sorted(metrics):
        print(f"{k:44s} {metrics[k]['value']:>16.6g} {metrics[k]['unit']}")
    for k, v in detail.items():
        print(f"# {k}: {v}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
