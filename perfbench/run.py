"""Wall-clock benchmark of the planner service, driven over HTTP.

Usage::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 10 --trace 0

Starts an unmodified ``python -m repro serve`` subprocess (``--trace 1``
adds a second, traced server started through ``launcher.py``), drives it
in a closed loop from this one process with at most two threads, each
holding one persistent HTTP/1.1 connection, checks every reply, prints
every metric by name with its unit and sample count, and ends with one
JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  Exits 1
when a check fails or the server cannot be started.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import itertools
import json
import os
import random
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional

from layers import (
    FLEET_WORKLOADS, LAYERS, RATIOS, SERVE_WORKLOADS, WORKLOADS, per_layer_metric_names, unit,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Requests each client sends before the timed window (checked, not timed).
WARMUP_REQUESTS = 10
#: A load generator busier than this share of one core may be the bottleneck.
SATURATED_CPU_SHARE = 0.9

STRATEGIES = ("DP", "LS", "TR", "TR+DPU", "TR+IR", "TR+DPU+AHD")
POLICIES = ("fifo", "best-fit", "sjf", "priority", "fair-share", "deadline-aware")
#: The canonical pregen grid: every /v1/plan body drawn from it is a store hit.
CANONICAL = {
    "task": ("nas",), "dataset": ("cifar10",), "server": ("a6000", "2080ti"),
    "num_gpus": (2, 4), "batch_size": (128, 256, 384, 512), "strategy": STRATEGIES,
}
#: Cells serve-mixed's writer draws from, minus the canonical ones.
COLD_SPACE = {
    "task": ("nas", "compression"), "dataset": ("cifar10", "imagenet"),
    "server": ("a6000", "2080ti"), "num_gpus": (2, 4, 8),
    "batch_size": tuple(range(64, 1025, 16)), "strategy": STRATEGIES,
}
FLEET_JOBS = 200
SCENARIOS = {
    "fleet-plain": {},
    "fleet-faulted": {"faults": "flaky-fleet", "elastic": "shrink"},
    "fleet-tenant": {
        "tenants": "batch:rate=0.4;prod:priority=2,deadline=strict,rate=0.1",
        "price_curve": "spot",
    },
}

E2E_UNITS = {
    "setup_s": "s", "p50_ms": "ms", "p90_ms": "ms", "req_per_s": "1/s", "server_peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not run (no result is printed)."""


def grid(axes: Dict[str, tuple]) -> List[dict]:
    return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]


def cell_id(body: dict) -> tuple:
    return tuple(body[axis] for axis in CANONICAL)


def digest(document) -> str:
    return hashlib.sha256(json.dumps(document, sort_keys=True).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------- #
# Server process
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` subprocess on a free port; ``stop()`` ends it."""

    def __init__(self, store: Path, log: Path, spans: Optional[Path] = None) -> None:
        args = ["serve", "--http", "stdlib", "--host", "127.0.0.1", "--port", "0",
                "--store", str(store)]
        if spans is None:
            command = [sys.executable, "-m", "repro"] + args
        else:
            command = [sys.executable, str(HERE / "launcher.py"), str(spans)] + args
        self._log = open(log, "ab")
        self.peak_rss_mb: Optional[float] = None
        self.proc = subprocess.Popen(
            command, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline() if ready else b""
            if not line:
                raise BenchError(f"server did not announce its port; see {log}")
            self.port = json.loads(line)["serving"]["port"]
            self._wait_healthy()
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self) -> None:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/v1/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            time.sleep(0.01)
        raise BenchError("server never answered /v1/healthz")

    def get(self, path: str) -> bytes:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            if response.status != 200:
                raise BenchError(f"GET {path} returned {response.status}")
            return response.read()
        finally:
            conn.close()

    def stop(self) -> None:
        """SIGTERM the server, reap it, and keep its peak RSS (``ru_maxrss``,
        the same high-water mark as ``VmHWM``) in ``peak_rss_mb``."""
        if self.proc.returncode is None:
            os.kill(self.proc.pid, signal.SIGTERM)
            deadline = time.monotonic() + 30
            while True:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.monotonic() > deadline:
                    os.kill(self.proc.pid, signal.SIGKILL)
                    deadline = float("inf")
                time.sleep(0.01)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        self._log.close()


def set_up(workload: str, run_dir: Path, name: str, spans: Optional[Path] = None):
    """Fresh store (pregenerated for serve workloads) and a healthy server."""
    store = run_dir / name
    log = run_dir / f"{name}.log"
    started = time.perf_counter()
    if workload in SERVE_WORKLOADS:
        with open(log, "ab") as handle:
            subprocess.run(
                [sys.executable, "-m", "repro", "pregen", "--grid", "canonical",
                 "--store", str(store), "--out", str(run_dir / f"{name}-pregen.json")],
                cwd=ROOT, env=ENV, stdout=handle, stderr=handle, check=True, timeout=300,
            )
    server = Server(store, log, spans)
    return server, time.perf_counter() - started


# ---------------------------------------------------------------------- #
# Load generation (closed loop: each client waits for every reply)
# ---------------------------------------------------------------------- #
class Sample(NamedTuple):
    client: str
    body: dict
    rtt_s: float
    status: int
    raw: bytes


class Client:
    def __init__(self, name: str, port: int, path: str) -> None:
        self.name = name
        self.path = path
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def post(self, body: dict) -> Sample:
        data = json.dumps(body).encode()
        started = time.perf_counter()
        self.conn.request("POST", self.path, data, {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        raw = response.read()
        return Sample(self.name, body, time.perf_counter() - started, response.status, raw)

    def run_until(self, bodies: Iterator[dict], deadline: float, out: List[Sample]) -> None:
        for body in bodies:
            if time.perf_counter() >= deadline:
                return
            out.append(self.post(body))

    def run_passes(self, one_pass: List[dict], deadline: float, out: List[Sample]) -> None:
        """Whole passes until the deadline, so every policy weighs the same;
        at least two, so every policy has a percentile."""
        while True:
            out.extend(self.post(body) for body in one_pass)
            if time.perf_counter() >= deadline and len(out) >= 2 * len(one_pass):
                return

    def close(self) -> None:
        self.conn.close()


class Traffic(NamedTuple):
    path: str
    #: Per client: (name, warm-up bodies, measured body iterator or fleet pass).
    clients: List[tuple]


def make_traffic(workload: str, seed: int) -> Traffic:
    rng = random.Random(seed)
    if workload in FLEET_WORKLOADS:
        # One fixed pass for every seed: reordering the six policies alone
        # moved fleet-tenant's mean by up to a fifth, more than any bound.
        one_pass = [
            dict(num_jobs=FLEET_JOBS, policy=policy, **SCENARIOS[workload])
            for policy in POLICIES
        ]
        return Traffic("/v1/cluster", [("fleet", one_pass, one_pass)])
    warm = grid(CANONICAL)

    def reads(reader_rng: random.Random) -> Iterator[dict]:
        while True:
            yield reader_rng.choice(warm)

    reader = reads(random.Random(rng.random()))
    warmup_b = [next(reader) for _ in range(WARMUP_REQUESTS)]
    if workload == "serve-warm":
        other = reads(random.Random(rng.random()))
        warmup_a = [next(other) for _ in range(WARMUP_REQUESTS)]
        return Traffic("/v1/plan", [("A", warmup_a, other), ("B", warmup_b, reader)])
    canonical = {cell_id(body) for body in warm}
    cold = [body for body in grid(COLD_SPACE) if cell_id(body) not in canonical]
    rng.shuffle(cold)
    writes = iter(cold)
    warmup_a = [next(writes) for _ in range(WARMUP_REQUESTS)]
    return Traffic("/v1/plan", [("A", warmup_a, writes), ("B", warmup_b, reader)])


class Window(NamedTuple):
    warmup: List[Sample]
    samples: List[Sample]
    #: Requests per fleet pass (1 on the serve workloads).
    pass_size: int
    seconds: float
    start_mono: float
    end_mono: float
    cpu_share: float


def drive(server: Server, traffic: Traffic, seconds: float) -> Window:
    clients = [Client(name, server.port, traffic.path) for name, _, _ in traffic.clients]
    try:
        warmup: List[Sample] = []
        for client, (_, bodies, _) in zip(clients, traffic.clients):
            warmup.extend(client.post(body) for body in bodies)
        outputs: List[List[Sample]] = [[] for _ in clients]
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start_mono = time.monotonic()
        start = time.perf_counter()
        deadline = start + seconds
        loops = []
        for client, (_, _, stream), out in zip(clients, traffic.clients, outputs):
            loop = client.run_passes if isinstance(stream, list) else client.run_until
            loops.append((loop, (stream, deadline, out)))
        threads = [threading.Thread(target=loop, args=args) for loop, args in loops[1:]]
        for thread in threads:
            thread.start()
        loops[0][0](*loops[0][1])
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        end_mono = time.monotonic()
        after = resource.getrusage(resource.RUSAGE_SELF)
    finally:
        for client in clients:
            client.close()
    cpu = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
    samples = [sample for out in outputs for sample in out]
    stream = traffic.clients[0][2]
    pass_size = len(stream) if isinstance(stream, list) else 1
    return Window(warmup, samples, pass_size, elapsed, start_mono, end_mono, cpu / elapsed)


# ---------------------------------------------------------------------- #
# Checks
# ---------------------------------------------------------------------- #
class Checked(NamedTuple):
    sample: Sample
    payload: Optional[dict]
    ok: bool


def reference_results(bodies) -> Dict[tuple, dict]:
    """Each cell's result simulated in this process: what the server must return."""
    from repro import ExperimentConfig, Session

    session = Session()
    results = {}
    for body in bodies:
        key = cell_id(body)
        if key not in results:
            config = ExperimentConfig(**{k: v for k, v in body.items() if k != "strategy"})
            result = session.run(config, strategy=body["strategy"]).to_dict()
            results[key] = json.loads(json.dumps(result))
    return results


def check(workload: str, window: Window) -> List[Checked]:
    """Parse and check every reply, warm-up first, in the order sent."""
    parsed = []
    for sample in window.warmup + window.samples:
        payload = None
        if sample.status == 200:
            try:
                payload = json.loads(sample.raw)
            except ValueError:
                pass
        parsed.append((sample, payload))
    good = [(s, p) for s, p in parsed if p is not None]
    if workload in FLEET_WORKLOADS:
        verify = fleet_verifier(len(window.warmup))
    else:
        verify = plan_verifier(workload, reference_results(s.body for s, _ in good))
    checked = []
    for index, (sample, payload) in enumerate(parsed):
        try:
            ok = payload is not None and verify(index, sample, payload)
        except (KeyError, TypeError):
            ok = False
        checked.append(Checked(sample, payload, ok))
    return checked


def plan_verifier(workload: str, references: Dict[tuple, dict]):
    """Store hits are warm and unsimulated; client A's never-seen cells on
    serve-mixed simulate exactly once; every result is the reference."""
    seen = set()

    def verify(index: int, sample: Sample, payload: dict) -> bool:
        request = payload["meta"]["request"]
        cell = cell_id(sample.body)
        right = payload["result"] == references[cell]
        if sample.client == "A" and workload == "serve-mixed":
            fresh = cell not in seen
            seen.add(cell)
            return right and fresh and request["simulations"] == 1
        return right and request["warm"] is True and request["simulations"] == 0

    return verify


def fleet_verifier(warmup_count: int):
    """Every report has all jobs; after warm-up each policy's report is the
    warm-up's, digest for digest, and nothing simulates."""
    first_digest: Dict[str, str] = {}

    def verify(index: int, sample: Sample, payload: dict) -> bool:
        policy = sample.body["policy"]
        report = payload["reports"][policy]
        first_digest.setdefault(policy, digest(report))
        if report["num_jobs"] != FLEET_JOBS:
            return False
        return index < warmup_count or (
            payload["meta"]["request"]["simulations"] == 0
            and digest(report) == first_digest[policy]
        )

    return verify


def request_counts(server: Server, parse_prometheus) -> Dict[str, float]:
    counts: Dict[str, float] = defaultdict(float)
    samples = parse_prometheus(server.get("/v1/metrics").decode())
    for labels, value in samples.get("repro_http_requests_total", []):
        counts[labels.get("endpoint", "")] += value
    return counts


# ---------------------------------------------------------------------- #
# Metrics
# ---------------------------------------------------------------------- #
def quantiles(values: List[float]) -> List[float]:
    if len(values) < 2:
        raise BenchError(f"only {len(values)} measured replies; cannot take percentiles")
    return statistics.quantiles(values, n=10)


def end_to_end(window: Window, checked: List[Checked], setup: List[float],
               rss_mb: float) -> Dict[str, tuple]:
    """Every end-to-end metric as ``name -> (value, sample count)``.

    On the serve workloads the percentiles are over requests.  Fleet
    requests differ up to tenfold in cost by policy, so a percentile over
    them lands on whichever policy sits at that rank and jumps between
    runs.  There ``p50_ms`` is the median pass (the mean round trip of one
    request per policy) and ``p90_ms`` each policy's 90th percentile,
    averaged over the policies.
    """
    measured = [c for c in checked[len(window.warmup):] if c.ok]
    rtt_ms = [c.sample.rtt_s * 1e3 for c in measured]
    size = window.pass_size
    if size == 1:
        p50, p90, units = statistics.median(rtt_ms), quantiles(rtt_ms)[8], len(rtt_ms)
    else:
        passes = [statistics.fmean(rtt_ms[i:i + size]) for i in range(0, len(rtt_ms), size)]
        p50, units = statistics.median(passes), len(passes)
        p90 = statistics.fmean(quantiles(rtt_ms[i::size])[8] for i in range(size))
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "p50_ms": (p50, units),
        "p90_ms": (p90, len(rtt_ms)),
        "req_per_s": (len(window.samples) / window.seconds, len(window.samples)),
        "server_peak_rss_mb": (rss_mb, 1),
    }


def roadmap_figures(workload: str, window: Window, checked: List[Checked]) -> Dict[str, tuple]:
    """The same traffic under the per-class names used in ROADMAP and the docs,
    plus the untraced transport time (round trip minus server dispatch)."""
    measured = [c for c in checked[len(window.warmup):] if c.ok]
    transport = [
        c.sample.rtt_s * 1e3 - c.payload["meta"]["request"]["duration_ms"] for c in measured
    ]
    figures = {"transport_p50_ms": (statistics.median(transport), len(transport), "ms")}
    if workload in FLEET_WORKLOADS:
        wall = sum(c.sample.rtt_s for c in measured)
        jobs = sum(c.payload["reports"][c.sample.body["policy"]]["num_jobs"] for c in measured)
        name = workload.replace("-", "_")
        figures[f"{name}_jobs_per_s"] = (jobs / wall, len(measured), "1/s")
        return figures
    figures["plan_rps"] = (len(measured) / window.seconds, len(measured), "1/s")
    classes = {"warm": measured} if workload == "serve-warm" else {
        "cold": [c for c in measured if c.sample.client == "A"],
        "warm": [c for c in measured if c.sample.client == "B"],
    }
    for temperature, replies in classes.items():
        rtt_ms = [c.sample.rtt_s * 1e3 for c in replies]
        deciles = quantiles(rtt_ms)
        figures[f"plan_{temperature}_p50_ms"] = (statistics.median(rtt_ms), len(rtt_ms), "ms")
        figures[f"plan_{temperature}_p90_ms"] = (deciles[8], len(rtt_ms), "ms")
    return figures


def per_layer(spans: list, window: Window, checked: List[Checked], path: str):
    """Self time per layer over the requests dispatched inside the window.

    Returns the metrics and the closure: layer self times plus transport
    over the client round trip, which should be within 0.1 of 1.

    A layer's self time is its span's duration minus its direct children's;
    ``share`` divides it by the summed ``serve.dispatch`` time (server busy
    time), except ``serve.transport``'s, which divides by client round trips.
    """
    children = defaultdict(list)
    for span in spans:
        children[span[1]].append(span)
    roots = [
        s for s in children[0]
        if s[2] == "serve.dispatch" and s[6] == path
        and window.start_mono <= s[3] <= window.end_mono
    ]
    if not roots:
        raise BenchError("the traced server recorded no request inside the window")
    calls = defaultdict(int)
    self_s = defaultdict(float)
    hits = tasks = 0
    stack = list(roots)
    while stack:
        span = stack.pop()
        kids = children[span[0]]
        stack.extend(kids)
        name = span[2]
        calls[name] += 1
        self_s[name] += (span[4] - span[3]) - sum(k[4] - k[3] for k in kids)
        if name == "store.get":
            hits += bool(span[6])
        elif name == "engine.run":
            tasks += span[6]
    busy_s = sum(s[4] - s[3] for s in roots)
    requests = len(roots)
    replies = [c for c in checked[len(window.warmup):] if c.ok]
    transport_s = [
        c.sample.rtt_s - c.payload["meta"]["request"]["duration_ms"] / 1e3 for c in replies
    ]
    calls["serve.transport"] = len(replies)
    metrics = {}
    for layer in LAYERS:
        if layer.name == "serve.transport":
            calls_per_req, self_ms = 1.0, statistics.fmean(transport_s) * 1e3
            share = sum(transport_s) / sum(c.sample.rtt_s for c in replies)
        else:
            calls_per_req = calls[layer.name] / requests
            self_ms = self_s[layer.name] * 1e3 / requests
            share = self_s[layer.name] / busy_s
        metrics[f"{layer.name}.calls_per_req"] = calls_per_req
        metrics[f"{layer.name}.self_ms_per_req"] = self_ms
        metrics[f"{layer.name}.share"] = share
    metrics["store.hit_ratio"] = hits / calls["store.get"] if calls["store.get"] else 0.0
    metrics["session.sim_ratio"] = (
        calls["session.plan"] / calls["session.run"] if calls["session.run"] else 0.0
    )
    metrics["engine.tasks_per_cell"] = tasks / calls["engine.run"] if calls["engine.run"] else 0.0
    metrics["loadgen.cpu_share"] = window.cpu_share
    closure = (busy_s / requests + statistics.fmean(transport_s)) / statistics.fmean(
        c.sample.rtt_s for c in replies
    )
    return metrics, closure


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def print_e2e(title: str, figures: Dict[str, tuple], aliases: Dict[str, tuple]) -> None:
    print(f"-- {title}")
    for name, (value, count) in figures.items():
        print(f"  {name:<26} {value:12.4f} {E2E_UNITS[name]:<5} (n={count})")
    for name, (value, count, unit) in aliases.items():
        print(f"  {name:<26} {value:12.4f} {unit:<5} (n={count})")


def print_layers(workload: str, metrics: Dict[str, float], closure: float) -> None:
    print(f"-- per-layer self time, {workload} (traced)")
    print(f"  {'layer':<20} {'calls/req':>10} {'self ms/req':>12} {'share':>7}  prediction")
    for layer in LAYERS:
        verdict = "moves " + ",".join(layer.moves) + " on " + ",".join(layer.on)
        if workload in layer.unchanged_on:
            verdict = "no change expected here"
        print(
            f"  {layer.name:<20} {metrics[layer.name + '.calls_per_req']:10.3f}"
            f" {metrics[layer.name + '.self_ms_per_req']:12.4f}"
            f" {metrics[layer.name + '.share']:7.3f}  {verdict}"
        )
    for name in RATIOS:
        print(f"  {name:<20} {metrics[name]:10.4f}")
    verdict = "ok" if abs(closure - 1) <= 0.1 else "OFF BY MORE THAN 0.1"
    print(f"  closure, (self times + transport) / client round trip: {closure:.4f} {verdict}")


def measure(workload: str, seed: int, seconds: float, server: Server, parse_prometheus,
            problems: List[tuple]):
    """One timed window against ``server``, which it stops; checks every reply."""
    traffic = make_traffic(workload, seed)
    before = request_counts(server, parse_prometheus)
    window = drive(server, traffic, seconds)
    after = request_counts(server, parse_prometheus)
    server.stop()
    rss_mb = server.peak_rss_mb
    sent = len(window.warmup) + len(window.samples)
    counted = after[traffic.path] - before[traffic.path]
    if counted != sent:
        message = f"/v1/metrics counted {counted:g} {traffic.path} requests, sent {sent}"
        problems.append((message, 1))
    checked = check(workload, window)
    bad = sum(not c.ok for c in checked)
    if bad:
        problems.append((f"{bad} replies were not 200 or failed their check", 0))
    if window.cpu_share >= SATURATED_CPU_SHARE:
        print(f"  WARNING load generator saturated: cpu_share {window.cpu_share:.3f}")
    return traffic, window, checked, rss_mb, sent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401  (the reference results need the library)
        from tools.load_serve import parse_prometheus
    except ImportError as error:
        print(f"error: cannot import the program under test: {error}", file=sys.stderr)
        return 1

    run_dir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    servers: List[Server] = []
    #: (message, failures it adds beyond the failed replies already counted)
    problems: List[tuple] = []
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    try:
        setup = []
        for index in range(SETUPS):
            server, seconds = set_up(args.workload, run_dir, f"setup{index}")
            servers.append(server)
            setup.append(seconds)
            if index < SETUPS - 1:
                server.stop()
        _, window, checked, rss_mb, attempted = measure(
            args.workload, args.seed, args.seconds, server, parse_prometheus, problems
        )
        figures = end_to_end(window, checked, setup, rss_mb)
        print_e2e("end to end (untraced)", figures, roadmap_figures(args.workload, window, checked))
        print(f"  loadgen.cpu_share          {window.cpu_share:12.4f}")
        failed = sum(not c.ok for c in checked)
        if args.trace:
            spans_path = run_dir / "spans.json"
            traced, traced_setup = set_up(args.workload, run_dir, "traced", spans_path)
            servers.append(traced)
            t_traffic, t_window, t_checked, t_rss, t_attempted = measure(
                args.workload, args.seed, args.seconds, traced, parse_prometheus, problems
            )
            attempted += t_attempted
            failed += sum(not c.ok for c in t_checked)
            t_figures = end_to_end(t_window, t_checked, [traced_setup], t_rss)
            print("-- tracing overhead, traced / untraced")
            for name, (value, _) in t_figures.items():
                print(f"  {name:<26} {value / figures[name][0]:12.4f}")
            layer_metrics, closure = per_layer(
                json.loads(spans_path.read_text()), t_window, t_checked, t_traffic.path
            )
            print_layers(args.workload, layer_metrics, closure)
            metrics = {
                name: {"value": layer_metrics[name], "unit": unit(name)}
                for name in per_layer_metric_names()
            }
        else:
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]}
                for name, (value, _) in figures.items()
            }
    finally:
        for server in servers:
            server.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    # A failed reply counts once, a failed whole-run check as one more.
    failed += sum(extra for _, extra in problems)
    print(f"-- checks: attempted {attempted}, failed {failed}, "
          f"failed_ratio {failed / attempted:.4f}")
    for message, _ in problems:
        print(f"  FAILED: {message}")
    correct = not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(1)
