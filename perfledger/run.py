#!/usr/bin/env python3
"""perfledger: end-to-end and per-layer benchmark of fastQAOA.

Usage, from the root of a checkout:

    python3 perfledger/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds qaoa_serve, qaoa_cli and ledger_probe from the checkout's sources into
$CARGO_TARGET_DIR (default .bench_build), runs one workload, checks the
program's outputs, and prints as the last line of standard output one JSON
object with the keys "correct", "attempted", "failed" and "metrics". With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ledger. The host fingerprint, the triad figures and, in a traced
run, the "where the time goes" table go to standard error; the traced run
also writes its spans to <build dir>/perfledger-out/. Exits non-zero when any
output is wrong. perfledger/README.md explains the workloads and metrics.
"""

import argparse
import json
import math
import os
import random
import re
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("serve_small", "serve_dram", "serve_mps", "cli_anglefind")

END_TO_END = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "service.frontend_ms_mean": "ms",
    "service.outside_worker_ms_p50": "ms",
    "service.outside_worker_ms_p99": "ms",
    "service.worker_ms_p50": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.json.parse_us": "us",
    "service.json.dump_us": "us",
    "service.plan_lookup_ms": "ms",
    "service.plan_cache.hit_ratio": "ratio",
    "service.plan_cache.builds": "count",
    "service.plan_cache.evictions": "count",
    "service.plan_build_s": "s",
    "service.peak_rss_end_mb": "MB",
    "core.evaluate_ms": "ms",
    "core.evaluate_batch_ms_per_lane": "ms",
    "autodiff.gradient_ms": "ms",
    "autodiff.gradient_over_evaluate": "ratio",
    "mixers.apply_ms.x": "ms",
    "mixers.apply_ms.grover": "ms",
    "mixers.apply_ms.ring": "ms",
    "mixers.apply_ms.clique": "ms",
    "anglefind.evaluations": "count",
    "anglefind.optimizer_calls": "count",
    "anglefind.ms_per_eval": "ms",
    "mps.evaluate_ms": "ms",
    "mps.truncations": "count",
    "mps.max_bond_reached": "count",
    "mps.discarded_weight": "ratio",
    "host.triad_gbps_1t": "GB/s",
    "host.triad_gbps_4t": "GB/s",
    "host.steal_pct": "%",
    "trace.overhead_ms": "ms",
}
for _n in (14, 24):
    for _k in ("wht", "phase", "expect"):
        PER_LAYER[f"linalg.{_k}_ms.n{_n}"] = "ms"
        PER_LAYER[f"linalg.{_k}_gbps.n{_n}"] = "GB/s"
        PER_LAYER[f"linalg.{_k}_roofline_pct.n{_n}"] = "%"

# cli_anglefind: instance seeds whose CSV rows are recorded in
# cli_reference.json; --seed picks the order in which they run.
CLI_ARGS = ["--problem=maxcut", "--mixer=tf", "--n=14", "--p=4"]
# Reference inputs for layers a workload does not exercise itself (traced
# runs report every layer on every workload).
CLI_REF_ARGS = ["--problem=maxcut", "--mixer=tf", "--n=10", "--p=3", "--seed=11"]
MPS_REF = {"problem": "maxcut", "mixer": "tf", "n": 20, "seed": 5, "p": 1,
           "degree": 3, "engine": "mps", "max_bond": 16}
EXACT_REF = {"problem": "maxcut", "mixer": "tf", "n": 14, "seed": 1, "p": 4}
REF_SERVE_SECONDS = 2.0


def log(*args):
    print("[perfledger]", *args, file=sys.stderr, flush=True)


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields[:8])


# --------------------------------------------------------------- building

def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def build():
    """Configure once, then build the three programs (a no-op when fresh)."""
    cdir = build_dir() / "perfledger"
    cdir.mkdir(parents=True, exist_ok=True)
    if not (cdir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cdir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(cdir), "-j", str(os.cpu_count() or 1),
                    "--target", "qaoa_serve", "qaoa_cli", "ledger_probe"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return {"serve": cdir / "fastqaoa" / "tools" / "qaoa_serve",
            "cli": cdir / "fastqaoa" / "tools" / "qaoa_cli",
            "probe": cdir / "ledger_probe"}


# ---------------------------------------------------------------- statistics

def rank_pct(values, q):
    """Nearest-rank percentile: the ceil(q*N)-th smallest value."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def tail_pct(values):
    """p99, or with fewer than 1000 samples the highest percentile that still
    leaves ten samples beyond it, and never below the median: a tail figure
    that one slow sample cannot set on its own."""
    return rank_pct(values, min(0.99, max(0.5, 1.0 - 10.0 / len(values))))


def median(values, default=0.0):
    return statistics.median(values) if values else default


def parse_histograms(text):
    """Prometheus text -> {family: {"buckets": [(le, cum)], "sum", "count"}},
    keyed "family|kind" for the per-kind job families."""
    hists = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = re.match(r"(\w+?)_(bucket|sum|count)(\{[^}]*\})? (\S+)$", line)
        if not m:
            continue
        fam, part, labels, value = m.group(1), m.group(2), m.group(3) or "", float(m.group(4))
        kind = re.search(r'kind="([^"]*)"', labels)
        if kind:
            fam += "|" + kind.group(1)
        h = hists.setdefault(fam, {"buckets": {}, "sum": 0.0, "count": 0.0})
        if part == "bucket":
            le = re.search(r'le="([^"]*)"', labels).group(1)
            le = math.inf if le == "+Inf" else float(le)
            h["buckets"][le] = h["buckets"].get(le, 0.0) + value
        else:
            h[part] += value
    for h in hists.values():
        h["buckets"] = sorted(h["buckets"].items())
    return hists


def hist_quantile(h, q):
    """Quantile of a log2-bucketed histogram, interpolated inside the bucket
    (bucket i spans [upper/2, upper))."""
    total = h["count"]
    if not total:
        return 0.0
    target, prev = q * total, 0.0
    for upper, cum in h["buckets"]:
        if cum >= target:
            if math.isinf(upper):
                return h["sum"] / total
            lo = upper / 2
            frac = (target - prev) / (cum - prev) if cum > prev else 1.0
            return lo + frac * (upper - lo)
        prev = cum
    return h["sum"] / total


# ------------------------------------------------------------ request specs

def job(op, instance, rng, lanes):
    """One request on `instance` with angles drawn from `rng`."""
    req = dict(instance, op=op)
    p = instance["p"]
    draw = lambda: [rng.uniform(0.0, math.pi) for _ in range(p)]
    if op == "batch_evaluate":
        req["betas"] = [draw() for _ in range(lanes)]
        req["gammas"] = [draw() for _ in range(lanes)]
    else:
        req["betas"], req["gammas"] = draw(), draw()
    return req


def inst(problem, mixer, n, seed, p, **extra):
    return dict({"problem": problem, "mixer": mixer, "n": n, "seed": seed, "p": p}, **extra)


class Traffic:
    """A served workload's request stream, generated from --seed alone."""

    def __init__(self, name, seed):
        self.name = name
        self.rng = random.Random(f"{name}:{seed}")
        self.count = 0
        self.cycle = [None]
        self.setups = 5  # set-ups per untraced run; setup_s is their median
        draw = lambda: self.rng.randrange(1, 1 << 30)
        if name == "serve_small":
            self.workers, self.conns, self.lanes = 2, 4, 16
            # 5% of requests name an instance outside the pool, drawn from
            # 64 per run: each one's first request builds and inserts a plan
            # beside the lookups, and the daemon's plan memory stays bounded,
            # so its peak RSS tracks the completed requests alone.
            self.fresh = [self.rng.randrange(1 << 30, 1 << 31) for _ in range(64)]
            self.pool = [inst("maxcut", "tf", 12, draw(), 3),
                         inst("maxcut", "tf", 12, draw(), 3),
                         inst("wmaxcut", "tf", 14, draw(), 3),
                         inst("ksat", "grover", 12, draw(), 3),
                         inst("densest", "ring", 10, draw(), 3),
                         inst("vertexcover", "clique", 10, draw(), 3)]
        elif name == "serve_dram":
            self.workers, self.conns, self.lanes = 1, 1, 4
            self.setups = 3  # each one builds the n=24 plan: ~4 s
            # One fixed instance (the library's default seed); angles vary.
            self.pool = [inst("maxcut", "tf", 24, 42, 2)]
            # Requests take seconds here, so a run holds only a few: the
            # window always ends on a whole block of this cycle, which keeps
            # the op mix of every run the same.
            self.cycle = ["evaluate", "gradient", "evaluate", "batch_evaluate",
                          "evaluate", "evaluate"]
        elif name == "serve_mps":
            self.workers, self.conns, self.lanes = 1, 1, 0
            # One fixed graph: MPS cost depends on its structure, so a
            # per-seed graph would swamp the timing; angles vary. Bond cap 8
            # keeps a request near 0.45 s, so a run holds ~20 of them.
            self.pool = [inst("maxcut", "tf", 32, 42, 1, degree=3,
                              engine="mps", max_bond=8)]
        else:
            raise ValueError(name)

    def next(self):
        r = self.rng
        i = self.count
        self.count += 1
        if self.name == "serve_small":
            if r.random() < 0.05:  # a fresh instance: plan build + insert
                target = inst("maxcut", "tf", 12, r.choice(self.fresh), 3)
            else:
                target = r.choice(self.pool)
            u = r.random()
            op = "evaluate" if u < 0.65 else "gradient" if u < 0.90 else "batch_evaluate"
            return job(op, target, r, self.lanes)
        if self.name == "serve_dram":
            return job(self.cycle[i % len(self.cycle)], self.pool[0], r, self.lanes)
        return job("evaluate", self.pool[0], r, 0)

    def warmup(self):
        """One evaluate per pool instance: what set-up must have served."""
        r = random.Random(0)
        return [job("evaluate", x, r, 0) for x in self.pool]


# ------------------------------------------------------------------ daemon

class Daemon:
    """A forked qaoa_serve on a Unix socket inside the build directory."""

    def __init__(self, exe, rundir, workers, tag):
        # Relative to the checkout root (the cwd), to stay under the
        # 108-byte sun_path limit however deep the checkout is.
        self.sock = os.path.relpath(rundir / f"{tag}.sock", ROOT)
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.log = open(rundir / f"{tag}.log", "wb")
        self.proc = subprocess.Popen(
            [str(exe), f"--socket={self.sock}", f"--workers={workers}", "--quiet"],
            stdout=self.log, stderr=self.log, cwd=ROOT)
        deadline = time.monotonic() + 60
        while True:
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.sock)
                return
            except OSError:
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("qaoa_serve did not come up")
                time.sleep(0.002)
            finally:
                s.close()

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.sock)
        return s

    def call(self, obj):
        with self.connect() as s:
            s.sendall((json.dumps(obj) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(1 << 20)
                if not chunk:
                    raise RuntimeError("qaoa_serve closed the connection")
                buf += chunk
        return json.loads(buf)

    def vm_hwm_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def start_and_prime(exe, rundir, traffic, tag):
    """Fork a daemon and serve every pool instance once. Returns the daemon,
    the set-up time (fork to last warm-up response) and its VmHWM then."""
    t0 = time.perf_counter()
    d = Daemon(exe, rundir, traffic.workers, tag)
    for req in traffic.warmup():
        resp = d.call(req)
        if not resp.get("ok"):
            d.stop()
            raise RuntimeError(f"warm-up request failed: {resp}")
    return d, time.perf_counter() - t0, d.vm_hwm_mb()


def closed_loop(daemon, traffic, seconds, spans=None):
    """Drive traffic.conns connections in a closed loop from this one thread
    until `seconds` have passed, then let in-flight requests finish. Returns
    one record per request. With `spans` (a list), a client span is
    appended per request: request generation and the round trip."""
    sel = selectors.DefaultSelector()
    records = []
    stop_at = time.perf_counter() + seconds

    def send(c):
        t_gen = time.perf_counter()
        line = (json.dumps(traffic.next()) + "\n").encode()
        c["line"], c["t_gen"], c["t_send"] = line, t_gen, time.perf_counter()
        c["sock"].sendall(line)

    for _ in range(traffic.conns):
        c = {"sock": daemon.connect(), "buf": b""}
        sel.register(c["sock"], selectors.EVENT_READ, c)
        send(c)
    open_conns = traffic.conns
    while open_conns:
        events = sel.select(timeout=120)
        if not events:
            raise RuntimeError("no response from qaoa_serve for 120 s")
        for key, _ in events:
            c = key.data
            chunk = c["sock"].recv(1 << 20)
            if not chunk:
                raise RuntimeError("qaoa_serve closed a connection")
            c["buf"] += chunk
            if not c["buf"].endswith(b"\n"):
                continue
            t_recv = time.perf_counter()
            if spans is not None:
                rid = len(records)
                spans.append({"name": "client.request", "req": rid, "parent": -1,
                              "t0": c["t_gen"], "t1": t_recv})
                spans.append({"name": "client.encode", "req": rid, "parent": len(spans) - 1,
                              "t0": c["t_gen"], "t1": c["t_send"]})
            records.append({"line": c["line"], "t_send": c["t_send"],
                            "t_recv": t_recv, "resp": c["buf"]})
            c["buf"] = b""
            if t_recv < stop_at or traffic.count % len(traffic.cycle):
                send(c)
            else:
                sel.unregister(c["sock"])
                c["sock"].close()
                open_conns -= 1
    sel.close()
    for r in records:
        r["json"] = json.loads(r["resp"])
        r["op"] = json.loads(r["line"])["op"]
        r["rtt_ms"] = (r["t_recv"] - r["t_send"]) * 1e3
    return records


def tally(records):
    """(ok records, failed, rejected) — a rejection is overloaded/over_quota."""
    ok, failed, rejected = [], 0, 0
    for r in records:
        resp = r["json"]
        r["ok"] = bool(resp.get("ok")) and resp.get("state") == "done"
        if r["ok"]:
            ok.append(r)
        elif resp.get("error", {}).get("code") in ("overloaded", "over_quota"):
            rejected += 1
        else:
            failed += 1
    return ok, failed, rejected


def run_probe(exe, args):
    out = subprocess.run([str(exe)] + args, check=True, stdout=subprocess.PIPE,
                         stderr=sys.stderr, cwd=ROOT).stdout
    return json.loads(out.decode().strip().splitlines()[-1])


def replay(exe, rundir, lines, responses, tag):
    """In-process replay of request lines through ledger_probe; with
    `responses`, every result is checked bit for bit against them."""
    req_path = rundir / f"{tag}.requests.jsonl"
    req_path.write_bytes(b"".join(lines))
    args = ["replay", str(req_path)]
    if responses is not None:
        resp_path = rundir / f"{tag}.responses.jsonl"
        resp_path.write_bytes(b"".join(responses))
        args.append(str(resp_path))
    return run_probe(exe, args)


def one_per_op(records, rng):
    by_op = {}
    for r in records:
        by_op.setdefault(r["op"], []).append(r)
    return [rng.choice(by_op[op]) for op in sorted(by_op)]


def mps_fields(resp):
    r = resp["result"]
    return [r["expectation"], r["discarded_weight"], r["truncations"], r["max_bond_reached"]]


def serve_run(bins, rundir, traffic, seconds, setups_wanted, traced_phase):
    """Set up `setups_wanted` daemons in turn (the last one stays), drive the
    closed loop, scrape the daemon's own telemetry, stop it."""
    setups, setup_rss, daemon = [], [], None
    try:
        for k in range(setups_wanted):
            if daemon is not None:
                daemon.stop()
            daemon, dt, rss = start_and_prime(bins["serve"], rundir, traffic, f"daemon{k}")
            setups.append(dt)
            setup_rss.append(rss)
        before = daemon.call({"op": "stats"})["stats"]
        phase = seconds / 2 if traced_phase else seconds
        records = closed_loop(daemon, traffic, phase)
        spans, traced = [], []
        if traced_phase:
            traced = closed_loop(daemon, traffic, phase, spans=spans)
        ok, failed, rejected = tally(records + traced)
        repeat_ok = True
        if traffic.name == "serve_mps" and ok:
            # MPS responses must repeat bit for bit for a repeated spec.
            again = daemon.call(json.loads(ok[0]["line"]))
            repeat_ok = again.get("ok") and mps_fields(again) == mps_fields(ok[0]["json"])
        after = daemon.call({"op": "stats"})["stats"]
        metrics_text = daemon.call({"op": "metrics"})["text"]
        end_rss = daemon.vm_hwm_mb()
    finally:
        if daemon is not None:
            daemon.stop()
    wrong = 0 if repeat_ok else 1
    if not repeat_ok:
        log("MPS response did not repeat bit for bit")
    # The repeat above is one more completed job on the daemon's side.
    served = after["completed"] - before["completed"] - (1 if traffic.name == "serve_mps" and ok else 0)
    if served != len(ok):
        wrong += 1
        log(f"client saw {len(ok)} completions, daemon stats.completed moved by {served}")
    return {"setups": setups, "setup_rss_mb": setup_rss, "end_rss_mb": end_rss,
            "records": records, "traced": traced, "spans": spans,
            "ok": ok, "failed": failed, "rejected": rejected, "wrong": wrong,
            "stats": after, "metrics_text": metrics_text}


def serve_check(bins, rundir, traffic, ok, seed):
    """Bit-equality gate: a seeded sample of exact-engine responses against
    an in-process evaluate/evaluate_batch/gradient of the same spec."""
    rng = random.Random(f"check:{seed}")
    if traffic.name == "serve_small":
        sample = rng.sample(ok, min(len(ok), 120))
    elif traffic.name == "serve_dram":
        sample = [rng.choice(ok)]
    else:
        return {"checked": 0, "mismatches": 0}
    res = replay(bins["probe"], rundir, [r["line"] for r in sample],
                 [r["resp"] for r in sample], "check")
    if res["mismatches"]:
        log("bit-equality check failed:", res["first_mismatch"])
    return res


def daemon_report(run):
    """The daemon's own telemetry next to the client's view of the run."""
    hists = parse_histograms(run["metrics_text"])
    pc = run["stats"]["plan_cache"]
    parts = [f"stats.completed {run['stats']['completed']}",
             f"plan_cache hits {pc['hits']} misses {pc['misses']} "
             f"evictions {pc['evictions']}"]
    qw = hists.get("fastqaoa_service_job_queue_wait_seconds")
    if qw:
        parts.append(f"queue wait p50 {hist_quantile(qw, 0.5) * 1e3:.3f} ms "
                     f"p99 {hist_quantile(qw, 0.99) * 1e3:.3f} ms")
    for key, h in sorted(hists.items()):
        if key.startswith("fastqaoa_service_job_latency_seconds|"):
            kind = key.split("|")[1]
            client = [r["rtt_ms"] for r in run["records"] if r["ok"] and r["op"] == kind]
            parts.append(f"{kind}: daemon job p50 {hist_quantile(h, 0.5) * 1e3:.3f} ms, "
                         f"client p50 {rank_pct(client, 0.5) if client else 0.0:.3f} ms")
    log("daemon telemetry: " + "; ".join(parts))


def e2e_from_serve(run):
    window = max(r["t_recv"] for r in run["records"]) - min(r["t_send"] for r in run["records"])
    # A failed or refused request misses every latency figure: it enters the
    # percentiles as the whole window.
    lat = [r["rtt_ms"] if r["ok"] else window * 1e3 for r in run["records"]]
    return {
        "throughput_rps": sum(r["ok"] for r in run["records"]) / window,
        "latency_p50_ms": rank_pct(lat, 0.50),
        "latency_p99_ms": tail_pct(lat),
        "setup_s": median(run["setups"]),
        "peak_rss_mb": median(run["setup_rss_mb"]),
    }, len(lat)


# --------------------------------------------------------------------- CLI

def cli_child(exe, args, mpath):
    """Fork one qaoa_cli and reap it with wait4, so its own ru_maxrss is
    known. Returns wall time, peak RSS, CSV rows and its metrics JSON."""
    errpath = Path(mpath).with_suffix(".stderr")
    with open(errpath, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(exe)] + args + [f"--metrics={mpath}"],
                                stdout=subprocess.PIPE, stderr=err, cwd=ROOT)
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"qaoa_cli exited {proc.returncode}: "
                           f"{errpath.read_text()[-500:]}")
    metrics = json.loads(Path(mpath).read_text())
    return {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0,
            "rows": [line.split(",") for line in out.decode().splitlines()
                     if line[:1].isdigit()],
            "metrics": metrics,
            "angle_s": metrics["timings"]["anglefind.round"]["total_s"]}


def cli_seeds(seed):
    """The recorded instance seeds, in the order --seed gives them."""
    ref = json.loads((HERE / "cli_reference.json").read_text())
    seeds = sorted(ref, key=int)
    random.Random(f"cli_anglefind:{seed}").shuffle(seeds)
    return seeds, ref


def checked_cli(bins, rundir, instance_seed, ref, tag):
    """One find_angles run; its CSV rows (every column but evals_per_sec)
    must equal the recorded reference for its instance seed."""
    r = cli_child(bins["cli"], CLI_ARGS + [f"--seed={instance_seed}"],
                  rundir / f"{tag}.metrics.json")
    r["seed"] = instance_seed
    r["wrong"] = [row[:6] for row in r["rows"]] != ref[instance_seed]
    if r["wrong"]:
        log(f"qaoa_cli --seed={instance_seed}: CSV rows differ from the recorded reference")
    return r


def cli_run(bins, rundir, seconds, seed, extra_setups):
    """Sequential qaoa_cli find_angles runs until `seconds` have passed."""
    seeds, ref = cli_seeds(seed)
    runs = []
    start = time.perf_counter()
    # Whole pairs of runs, so every window holds the same number of runs.
    while len(runs) % 2 or time.perf_counter() - start < seconds:
        runs.append(checked_cli(bins, rundir, seeds[len(runs) % len(seeds)], ref,
                                f"cli{len(runs)}"))
    setups = [r["wall"] - r["angle_s"] for r in runs]
    # More set-up samples: the same start-up, search capped at one evaluation.
    for k in range(extra_setups):
        r = cli_child(bins["cli"], CLI_ARGS + [f"--seed={seeds[k % len(seeds)]}", "--max-evals=1"],
                      rundir / f"cli_setup{k}.metrics.json")
        setups.append(r["wall"] - r["angle_s"])
    return {"runs": runs, "wrong": sum(r["wrong"] for r in runs), "setups": setups}


def e2e_from_cli(run):
    walls = [r["wall"] for r in run["runs"]]
    return {
        "throughput_rps": len(walls) / sum(walls),
        "latency_p50_ms": rank_pct(walls, 0.50) * 1e3,
        "latency_p99_ms": tail_pct(walls) * 1e3,
        "setup_s": median(run["setups"]),
        "peak_rss_mb": max(r["rss_mb"] for r in run["runs"]),
    }, len(walls)


# ------------------------------------------------------------------ ledger

LAYERS = ("client", "service", "core", "autodiff", "mixers", "mps")


def self_times(spans):
    """Per-span self time: duration minus the time its children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["t1"] - s["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, child)]


def span_stats(replayed):
    """name -> list of durations; req -> {name: duration}; layer self times."""
    spans = replayed["spans"]
    by_name, by_req, layer_self = {}, {}, {}
    for s, st in zip(spans, self_times(spans)):
        d = s["t1"] - s["t0"]
        by_name.setdefault(s["name"], []).append(d)
        by_req.setdefault(s["req"], {})[s["name"]] = d
        layer = s["name"].split(".")[0]
        layer = layer if layer in LAYERS else "uninstrumented"
        layer_self[layer] = layer_self.get(layer, 0.0) + st
    return by_name, by_req, layer_self


# The per-job plan work before the kernel: workload construction and the
# cache's fingerprint + lookup.
LOOKUP_SPANS = ("service.workload.problem_space", "service.workload.build_objective",
                "service.workload.build_mps_hamiltonian", "service.plan_cache.get_or_build")


def lookup_ms(req_spans):
    return sum(req_spans.get(n, 0.0) for n in LOOKUP_SPANS) * 1e3


def service_layers(replayed):
    """The service's in-process costs, on cache hits, from a replay."""
    by_name, by_req, _ = span_stats(replayed)
    hits = [lookup_ms(by_req[r["req"]]) for r in replayed["requests"] if not r["built"]]
    return {
        "service.json.parse_us": median(by_name.get("service.json.parse", [])) * 1e6,
        "service.json.dump_us": median(by_name.get("service.json.dump", [])) * 1e6,
        "service.plan_lookup_ms": median(hits),
    }


def core_layers(replayed):
    """core and autodiff costs from a replay of exact-engine requests."""
    by_name, by_req, _ = span_stats(replayed)
    reqs = replayed["requests"]
    lanes = [by_req[r["req"]]["core.evaluate_batch"] * 1e3 / r["lanes"]
             for r in reqs if r["op"] == "batch_evaluate"]
    per_plan = {}
    for r in reqs:
        if r["op"] in ("evaluate", "gradient"):
            name = "core.evaluate" if r["op"] == "evaluate" else "autodiff.gradient"
            per_plan.setdefault(r["plan"], {}).setdefault(r["op"], []).append(by_req[r["req"]][name])
    ratios = [median(v["gradient"]) / median(v["evaluate"])
              for v in per_plan.values() if "gradient" in v and "evaluate" in v]
    return {
        "core.evaluate_ms": median(by_name.get("core.evaluate", [])) * 1e3,
        "core.evaluate_batch_ms_per_lane": median(lanes),
        "autodiff.gradient_ms": median(by_name.get("autodiff.gradient", [])) * 1e3,
        "autodiff.gradient_over_evaluate": median(ratios),
    }


def mps_layers(replayed):
    by_name, _, _ = span_stats(replayed)
    m = [r["mps"] for r in replayed["requests"] if "mps" in r]
    return {
        "mps.evaluate_ms": median(by_name["mps.evaluate"]) * 1e3,
        "mps.truncations": median([x["truncations"] for x in m]),
        "mps.max_bond_reached": median([x["max_bond_reached"] for x in m]),
        "mps.discarded_weight": median([x["discarded_weight"] for x in m]),
    }


def daemon_layers(run):
    """Service metrics from the client's view joined with the daemon's own
    stats and Prometheus histograms."""
    recs = run["ok"]
    worker = [r["json"]["result"]["seconds"] * 1e3 for r in recs]
    outside = [r["rtt_ms"] - w for r, w in zip(recs, worker)]
    hists = parse_histograms(run["metrics_text"])
    qw = hists.get("fastqaoa_service_job_queue_wait_seconds",
                   {"buckets": [], "sum": 0.0, "count": 0})
    build = hists.get("fastqaoa_service_plan_cache_build_seconds",
                      {"buckets": [], "sum": 0.0, "count": 0})
    pc = run["stats"]["plan_cache"]
    lookups = pc["hits"] + pc["misses"]
    qw_mean_ms = qw["sum"] / qw["count"] * 1e3 if qw["count"] else 0.0
    return {
        "service.frontend_ms_mean": statistics.fmean(outside) - qw_mean_ms,
        "service.outside_worker_ms_p50": rank_pct(outside, 0.50),
        "service.outside_worker_ms_p99": rank_pct(outside, 0.99),
        "service.worker_ms_p50": rank_pct(worker, 0.50),
        "service.queue_wait_ms_p50": hist_quantile(qw, 0.50) * 1e3,
        "service.queue_wait_ms_p99": hist_quantile(qw, 0.99) * 1e3,
        "service.plan_cache.hit_ratio": pc["hits"] / lookups if lookups else 0.0,
        "service.plan_cache.builds": pc["misses"],
        "service.plan_cache.evictions": pc["evictions"],
        "service.plan_build_s": build["sum"] / build["count"] if build["count"] else 0.0,
        "service.peak_rss_end_mb": run["end_rss_mb"],
    }


def cli_layers(runs):
    evals = [sum(int(row[5]) for row in r["rows"]) for r in runs]
    calls = [sum(int(row[4]) for row in r["rows"]) for r in runs]
    return {
        "anglefind.evaluations": median(evals),
        "anglefind.optimizer_calls": median(calls),
        "anglefind.ms_per_eval": median([r["angle_s"] * 1e3 / e for r, e in zip(runs, evals)]),
    }


def host_layers(host, layers):
    out = {"host.triad_gbps_1t": host["triad_gbps_1t"],
           "host.triad_gbps_4t": host["triad_gbps_nt"]}
    for row in layers["kernels"]:
        k, n = row["kernel"], row["n"]
        out[f"linalg.{k}_ms.n{n}"] = row["ms"]
        out[f"linalg.{k}_gbps.n{n}"] = row["gbps"]
        out[f"linalg.{k}_roofline_pct.n{n}"] = 100.0 * row["gbps"] / host["triad_gbps_nt"]
    for kind, m in layers["mixers"].items():
        out[f"mixers.apply_ms.{kind}"] = m["ms"]
    return out


def where_serve(run, replayed):
    """'Where the time goes' for the workload's evaluate requests: client
    RTT split into time outside the worker (socket, front end, queue), plan
    lookup, kernel and JSON (in-process replay of the same specs), and the
    worker time those spans leave unexplained."""
    _, by_req, layer_self = span_stats(replayed)
    ev = [r for r in run["traced"] if r["ok"] and r["op"] == "evaluate"]
    reqs = [r for r in replayed["requests"] if r["op"] == "evaluate" and not r["built"]]
    if not ev or not reqs:
        return None
    kernel = "mps.evaluate" if "mps" in reqs[0] else "core.evaluate"
    rtt = rank_pct([r["rtt_ms"] for r in ev], 0.5)
    worker = rank_pct([r["json"]["result"]["seconds"] * 1e3 for r in ev], 0.5)
    rows = {
        "outside worker (socket, front end, queue)": rtt - worker,
        "json parse + dump": median([(by_req[r["req"]].get("service.json.parse", 0)
                                      + by_req[r["req"]].get("service.json.dump", 0)) * 1e3
                                     for r in reqs]),
        "plan lookup (workload + plan_cache)": median([lookup_ms(by_req[r["req"]]) for r in reqs]),
        f"kernel ({kernel})": median([by_req[r["req"]][kernel] * 1e3 for r in reqs]),
    }
    rows["residual (worker time the replay does not explain)"] = rtt - sum(rows.values())
    per_req = len(replayed["requests"])
    return {"op": "evaluate", "rtt_ms": rtt, "worker_ms": worker, "rows": rows,
            "samples": len(ev), "replayed": len(reqs),
            "layer_self_ms": {k: v * 1e3 / per_req for k, v in sorted(layer_self.items())}}


def where_cli(runs):
    """'Where the time goes' for one CLI run, from the CLI's own --metrics
    timers. The adjoint gradient runs a forward evaluate and a reverse sweep
    per call; angle finding is the CLI's own anglefind.round total."""
    r = runs[0]
    t = r["metrics"]["timings"]
    total = lambda name: t.get(name, {}).get("total_s", 0.0) * 1e3
    adjoint, forward, reverse = total("autodiff.adjoint"), total("core.evaluate"), total("autodiff.adjoint.reverse")
    rtt = r["wall"] * 1e3
    rows = {
        "process start, set-up and exit": rtt - r["angle_s"] * 1e3,
        "kernel: forward evaluate (core.evaluate)": forward,
        "kernel: reverse sweep (autodiff.adjoint.reverse)": reverse,
        "rest of the adjoint gradient": adjoint - forward - reverse,
        "anglefind optimizer outside the gradient": r["angle_s"] * 1e3 - adjoint,
    }
    return {"op": "qaoa_cli find_angles", "rtt_ms": rtt, "rows": rows, "samples": 1}


def print_where(workload, where, overhead_ms):
    if where is None:
        return
    log(f"where the time goes: {workload}, {where['op']}, p50 RTT "
        f"{where['rtt_ms']:.3f} ms over {where['samples']} requests "
        f"(tracing overhead {overhead_ms:+.3f} ms)")
    for name, ms in where["rows"].items():
        log(f"  {name:<50s} {ms:10.3f} ms  {100 * ms / where['rtt_ms']:6.1f} %")
    rows = where["rows"]
    lookup = sum(v for k, v in rows.items() if k.startswith("plan lookup"))
    kernels = sum(v for k, v in rows.items() if k.startswith("kernel"))
    log(f"  largest row: {max(rows, key=rows.get)}; plan lookup vs kernels: "
        + ("kernels dominate" if kernels >= lookup else "plan lookup dominates"))
    if "layer_self_ms" in where:
        log("  replay self time per request, by layer: " + ", ".join(
            f"{k} {v:.3f} ms" for k, v in where["layer_self_ms"].items()))


def traced_run(bins, rundir, workload, seconds, seed, host):
    """One traced run: the workload's own traffic (an untraced and a traced
    half), an in-process replay of its specs, the kernel/mixer rows, and
    reference inputs for the layers this workload does not exercise."""
    rng = random.Random(f"trace:{seed}")
    metrics, where, wrong, attempted, failed = {}, None, 0, 0, 0
    if workload == "cli_anglefind":
        # The same instance twice: untraced, then inside a client span.
        seeds, ref = cli_seeds(seed)
        plain = checked_cli(bins, rundir, seeds[0], ref, "cli_plain")
        t0 = time.perf_counter()
        traced = checked_cli(bins, rundir, seeds[0], ref, "cli_traced")
        cli_spans = [{"name": "client.cli_run", "req": 0, "parent": -1,
                      "t0": t0, "t1": time.perf_counter()}]
        runs = [plain, traced]
        attempted, wrong = 2, plain["wrong"] + traced["wrong"]
        overhead = (traced["wall"] - plain["wall"]) * 1e3
        metrics.update(cli_layers(runs))
        where = where_cli(runs)
        # The daemon layers on their reference traffic.
        ref_traffic = Traffic("serve_small", seed)
        serve = serve_run(bins, rundir, ref_traffic, REF_SERVE_SECONDS, 1, True)
    else:
        traffic = Traffic(workload, seed)
        serve = serve_run(bins, rundir, traffic, seconds, 1, True)
        metrics.update(cli_layers([cli_child(bins["cli"], CLI_REF_ARGS,
                                             rundir / "cli_ref.metrics.json")]))
        untraced = [r["rtt_ms"] for r in serve["records"] if r["ok"]]
        traced = [r["rtt_ms"] for r in serve["traced"] if r["ok"]]
        overhead = rank_pct(traced, 0.5) - rank_pct(untraced, 0.5) if traced and untraced else 0.0
    attempted += len(serve["records"]) + len(serve["traced"])
    failed += serve["failed"] + serve["rejected"]
    wrong += serve["wrong"]
    metrics["trace.overhead_ms"] = overhead
    metrics.update(daemon_layers(serve))

    # In-process replay of the workload's own specs, checked against the
    # daemon's responses: a sample for serve_small, one per op otherwise.
    ok = serve["ok"]
    if len(ok) > 40:
        sample = rng.sample(ok, min(len(ok), 150))
    else:
        # One per op, plus one more evaluate: the first replayed request
        # builds the plan, so this keeps at least one evaluate cache hit.
        sample = one_per_op(ok, rng)
        evals = [r for r in ok if r["op"] == "evaluate" and all(r is not x for x in sample)]
        if evals:
            sample.append(rng.choice(evals))
    own = replay(bins["probe"], rundir, [r["line"] for r in sample],
                 [r["resp"] for r in sample], "replay")
    wrong += own["mismatches"]
    if own["mismatches"]:
        log("bit-equality check failed:", own["first_mismatch"])
    metrics.update(service_layers(own))

    def reference(instance, ops, tag):
        lines = [json.dumps(job(op, instance, random.Random(seed), 16)).encode() + b"\n"
                 for op in ops]
        return replay(bins["probe"], rundir, lines, None, tag)

    exact_ops = ("evaluate", "gradient", "batch_evaluate")
    if workload == "serve_mps":
        core_src = reference(EXACT_REF, exact_ops, "ref_exact")
    elif workload == "cli_anglefind":  # the CLI's own instance
        core_src = reference(dict(EXACT_REF, seed=int(seeds[0])), exact_ops, "cli_exact")
    else:
        core_src = own
    metrics.update(core_layers(core_src))
    mps_src = own if workload == "serve_mps" else reference(MPS_REF, ("evaluate",), "ref_mps")
    metrics.update(mps_layers(mps_src))
    if workload != "cli_anglefind":
        where = where_serve(serve, own)
    metrics.update(host_layers(host, run_probe(bins["probe"], ["layers"])))
    print_where(workload, where, overhead)

    out = build_dir() / "perfledger-out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{workload}-seed{seed}-trace.json").write_text(json.dumps({
        "workload": workload, "seed": seed, "host": host, "metrics": metrics,
        "where": where, "replay_spans": own["spans"],
        "client_spans": cli_spans if workload == "cli_anglefind" else serve["spans"],
    }, indent=1))
    return metrics, attempted, failed + wrong, wrong


# -------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    os.chdir(ROOT)
    bins = build()
    rundir = build_dir() / "perfledger-run" / f"{args.workload}-{os.getpid()}"
    rundir.mkdir(parents=True, exist_ok=True)

    host = run_probe(bins["probe"], ["host"])
    log("host:", json.dumps(host))
    steal0, total0 = cpu_ticks()

    if args.trace:
        values, attempted, failed, wrong = traced_run(
            bins, rundir, args.workload, args.seconds, args.seed, host)
        units = PER_LAYER
    elif args.workload == "cli_anglefind":
        run = cli_run(bins, rundir, args.seconds, args.seed, 16)
        values, samples = e2e_from_cli(run)
        attempted, wrong = len(run["runs"]), run["wrong"]
        failed = wrong
        units = END_TO_END
        log(f"cli_anglefind: {samples} runs, instance seeds "
            f"{[r['seed'] for r in run['runs']]}, wall "
            f"{[round(r['wall'], 3) for r in run['runs']]} s, "
            f"set-up samples {len(run['setups'])}")
    else:
        traffic = Traffic(args.workload, args.seed)
        run = serve_run(bins, rundir, traffic, args.seconds, traffic.setups, False)
        check = serve_check(bins, rundir, traffic, run["ok"], args.seed)
        values, samples = e2e_from_serve(run)
        wrong = run["wrong"] + check["mismatches"]
        attempted = len(run["records"])
        failed = run["failed"] + run["rejected"] + wrong
        units = END_TO_END
        log(f"{args.workload}: attempted {attempted}, succeeded {len(run['ok'])}, "
            f"failed {run['failed']}, rejected {run['rejected']}, wrong {wrong} "
            f"(bit-checked {check['checked']}); latency samples {samples}; "
            f"daemon stats.completed {run['stats']['completed']}; VmHWM after set-up "
            f"{values['peak_rss_mb']:.1f} MB, at the end {run['end_rss_mb']:.1f} MB")
        daemon_report(run)

    steal1, total1 = cpu_ticks()
    # CPU time the hypervisor gave other guests: the host's contention
    # during this run, which every timing here is sensitive to.
    steal_pct = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    log(f"steal time during the run: {steal_pct:.1f}% of CPU time")
    if args.trace:
        values["host.steal_pct"] = steal_pct
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    correct = wrong == 0 and failed == 0
    if correct:  # a failing run keeps its request/response files
        shutil.rmtree(rundir, ignore_errors=True)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
