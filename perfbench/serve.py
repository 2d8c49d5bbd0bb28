"""The ``serve-online`` and ``serve-bulk`` workloads.

The server is the real serving CLI, ``python -m repro.serve <artifact>
--http``, in its own process group; the traced run launches it through
``serve_launcher.py`` instead.  The load comes from this process over at
most two persistent connections (``loadgen.py``).  The artifact and the
calibration graphs are fixed — they are the deployment — and the traffic
comes from the workload seed.

* ``serve-online`` — open loop: seeded Poisson arrivals at
  :data:`ONLINE_RATE` per second, each a single-graph ``/predict``; half
  the graphs are in-distribution TRIANGLES graphs (4-25 nodes), half
  size-shifted (26-100 nodes).  In-process server (``--workers 0``),
  float64, the default 10 ms flush window, a K=2 OOD-GNN seed ensemble.
* ``serve-bulk`` — closed loop over two connections, each request four
  D&D200-like graphs (half 30-200 nodes, half 201-600); a PNA artifact
  served in float32 by a pool of two worker processes.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from perfbench import common, ledger, loadgen

ONLINE_RATE = 40.0            # req/s: about half a request in flight on average
MIN_TIMED_REQUESTS = 1000     # >= 10 samples beyond p99 (reported, not gated)
SETUP_LAUNCHES = 5            # server launches per run; setup_s is their median
CONNECTIONS = 2
BULK_HIDDEN = 32              # PNA width: 1000 closed-loop requests take ~22 s on 2 cores
BULK_MAX_RPS = 50.0           # inputs generated per second of window (no repeats)
ONLINE_TRAIN_EPOCHS = 6
WARM_UP_S = 2.0               # closed-loop warm-up before the timed window
REFERENCE_SAMPLE = 32         # requests re-computed by an in-process engine
#: Probabilities sum to one within these bounds (float32 follows the
#: documented 1e-4 relative logit bound); reference outputs agree within
#: ``(rtol, atol)`` per dtype.
SUM_TOL = {"float64": 1e-9, "float32": 1e-4}
REF_TOL = {"float64": (1e-7, 1e-9), "float32": (1e-3, 1e-4)}


@dataclass
class Workload:
    dataset: str
    method: str
    workers: int
    dtype: str
    open_loop: bool
    graphs_per_request: int
    warm_up_requests: int     # enough for WARM_UP_S of closed-loop traffic


WORKLOADS = {
    "serve-online": Workload(dataset="triangles", method="ood-gnn", workers=0, dtype="float64",
                             open_loop=True, graphs_per_request=1, warm_up_requests=300),
    "serve-bulk": Workload(dataset="dd200", method="pna", workers=2, dtype="float32",
                           open_loop=False, graphs_per_request=4, warm_up_requests=120),
}


# ----------------------------------------------------------------------
# Deployment and traffic
# ----------------------------------------------------------------------

def _graph_json(graph) -> dict:
    return {"x": graph.x.tolist(), "edge_index": graph.edge_index.tolist()}


def _sampler(workload: Workload):
    """``sample(rng, shifted) -> Graph`` drawing from the dataset's generator."""
    from repro.datasets.social import sample_protein_graph
    from repro.datasets.triangles import sample_triangle_graph

    if workload.dataset == "triangles":
        def sample(rng, shifted):
            low, high = (26, 100) if shifted else (4, 25)
            while True:
                try:
                    return sample_triangle_graph(int(rng.integers(low, high + 1)), rng)
                except RuntimeError:
                    continue
        return sample

    def sample(rng, shifted):
        low, high = (201, 600) if shifted else (30, 200)
        return sample_protein_graph(bool(rng.integers(0, 2)), int(rng.integers(low, high + 1)), rng)
    return sample


def build_deployment(workload: Workload, directory: str):
    """Write the artifact and the calibration graphs; return (artifact, calibration graphs)."""
    from repro.core.ood_gnn import OODGNN, OODGNNConfig, OODGNNTrainer
    from repro.datasets import load_dataset
    from repro.encoders.models import build_model, compute_pna_degree_scale
    from repro.graph.data import GraphBatch
    from repro.serve import FeatureSchema, ModelArtifact, ModelSpec

    data = load_dataset(workload.dataset, seed=2024, scale=1.0)
    info = data.info
    schema = FeatureSchema.from_info(info)
    calibration = data.valid
    if workload.method == "ood-gnn":
        # A K=2 roster trained by Algorithm 1, so answers carry signal.
        config = OODGNNConfig(epochs=ONLINE_TRAIN_EPOCHS)
        spec = ModelSpec.for_ood_gnn(config)
        trainer = OODGNNTrainer(None, info.task_type, np.random.default_rng(2024),
                                metric=info.metric, config=config)
        models = trainer.fit_many(
            data.train, seeds=range(2),
            model_factory=lambda k: OODGNN(info.feature_dim, info.model_out_dim,
                                           np.random.default_rng([2024, k]), config=config),
        ).models
    else:
        # Untrained weights; one training-mode pass moves the batch-norm
        # statistics off their init.
        scale = compute_pna_degree_scale(data.train)
        spec = ModelSpec("pna", hidden_dim=BULK_HIDDEN, num_layers=3,
                         kwargs={"pna_degree_scale": scale})
        model = build_model("pna", info.feature_dim, info.model_out_dim, np.random.default_rng(2024),
                            hidden_dim=BULK_HIDDEN, num_layers=3, pna_degree_scale=scale)
        model.train()
        model(GraphBatch.from_graphs(data.train))
        model.eval()
        models = [model]
    artifact = ModelArtifact.from_models(models, spec, schema)
    artifact.save(os.path.join(directory, "model.npz"))
    with open(os.path.join(directory, "calibration.json"), "w") as fh:
        json.dump([_graph_json(g) for g in calibration], fh)
    return artifact, calibration


@dataclass
class Traffic:
    bodies: list            # encoded request bodies
    graphs: list            # per request: its Graph objects
    shifted: list           # per request: per-graph shift flags
    offsets: list = field(default_factory=list)   # open loop: due offsets (s)


def make_traffic(workload: Workload, rng, count: int) -> Traffic:
    """``count`` requests of fresh graphs, half of them size-shifted.

    A multi-graph request holds equal numbers of both kinds, so request
    sizes — and with them the latency tail — do not hinge on how many
    all-large requests a seed happens to draw.
    """
    sample = _sampler(workload)
    per = workload.graphs_per_request
    if per == 1:
        flags = np.arange(count) % 2 == 0
        rng.shuffle(flags)
    else:
        flags = np.concatenate([rng.permutation(np.arange(per) % 2 == 0) for _ in range(count)])
    graphs = [sample(rng, bool(flag)) for flag in flags]
    traffic = Traffic([], [], [])
    for i in range(count):
        chunk = graphs[i * per:(i + 1) * per]
        payload = _graph_json(chunk[0]) if per == 1 else {"graphs": [_graph_json(g) for g in chunk]}
        traffic.bodies.append(json.dumps(payload).encode())
        traffic.graphs.append(chunk)
        traffic.shifted.append([bool(f) for f in flags[i * per:(i + 1) * per]])
    if workload.open_loop:
        traffic.offsets = loadgen.poisson_offsets(rng, ONLINE_RATE, count)
    return traffic


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------

class Server:
    """One launch of the serving CLI; ``setup_s`` is launch → ``/healthz`` 200."""

    def __init__(self, workload: Workload, directory: str, spans_dir: str | None = None):
        args = [
            os.path.join(directory, "model.npz"), "--http", "--port", "0",
            "--workers", str(workload.workers),
            "--calibrate", os.path.join(directory, "calibration.json"),
        ]
        if workload.dtype == "float32":
            args += ["--dtype", "float32"]
        if spans_dir is None:
            command = [sys.executable, "-m", "repro.serve", *args]
            env = common.child_env()
        else:
            command = [sys.executable, os.path.join(common.ROOT, "perfbench", "serve_launcher.py"), *args]
            env = common.child_env(PERFBENCH_SPANS_DIR=spans_dir)
        self.stderr: list[str] = []
        launched = time.monotonic()
        self.proc = subprocess.Popen(
            command, cwd=common.ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            self.host, self.port = self._await_address(timeout=120.0)
            self._await_health(timeout=60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - launched

    def _await_address(self, timeout: float):
        found = threading.Event()
        address = []

        def drain() -> None:
            for line in self.proc.stderr:
                self.stderr.append(line)
                if not found.is_set() and line.startswith("serving ") and " on http://" in line:
                    host_port = line.split(" on http://", 1)[1].split()[0]
                    host, port = host_port.rsplit(":", 1)
                    address.append((host, int(port)))
                    found.set()

        self._drainer = threading.Thread(target=drain, daemon=True)
        self._drainer.start()
        deadline = time.monotonic() + timeout
        while not found.wait(0.01):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("server did not start:\n" + "".join(self.stderr[-40:]))
        return address[0]

    def _await_health(self, timeout: float) -> None:
        conn = loadgen.HttpConnection(self.host, self.port, timeout=5.0)
        deadline = time.monotonic() + timeout
        try:
            while True:
                status, _body = conn.request("GET", "/healthz")
                if status == 200:
                    return
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError("server never became healthy:\n" + "".join(self.stderr[-40:]))
                time.sleep(0.002)
        finally:
            conn.close()

    def get_json(self, path: str) -> dict:
        conn = loadgen.HttpConnection(self.host, self.port)
        try:
            status, body = conn.request("GET", path)
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    def memory_mib(self) -> float:
        """PSS of the server and every process it started."""
        from repro.serve.pool import process_memory

        return sum(process_memory(pid).get("pss", 0.0) for pid in _process_tree(self.proc.pid))

    def stop(self) -> None:
        """SIGTERM drain; the whole process group is killed if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        drainer = getattr(self, "_drainer", None)
        if drainer is not None:
            drainer.join(timeout=5.0)


def _process_tree(pid: int) -> list[int]:
    pids, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        pids.append(current)
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as fh:
                    frontier.extend(int(child) for child in fh.read().split())
            except OSError:
                continue
    return pids


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------

def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def parse_response(body: bytes, graphs_per_request: int) -> list[dict]:
    """The per-graph results of one 200 body, parsed as strict JSON."""
    payload = json.loads(body, parse_constant=_reject_constant)
    results = [payload] if graphs_per_request == 1 else payload["results"]
    if len(results) != graphs_per_request:
        raise ValueError(f"expected {graphs_per_request} results, got {len(results)}")
    return results


def check_result(result: dict, dtype: str) -> None:
    """Raise ValueError unless ``result`` is a well-formed calibrated answer."""
    energy = result["energy"]
    if not isinstance(energy, (int, float)) or not math.isfinite(energy):
        raise ValueError(f"energy {energy!r} is not a finite number")
    probs = result["probs"]
    if not probs or not all(isinstance(p, (int, float)) and math.isfinite(p) for p in probs):
        raise ValueError("probs must be a non-empty list of finite numbers")
    if abs(sum(probs) - 1.0) > SUM_TOL[dtype]:
        raise ValueError(f"probs sum to {sum(probs)!r}")
    if result["prediction"] != int(np.argmax(probs)):
        raise ValueError("prediction is not the argmax of probs")
    if not isinstance(result["ood"], bool):
        raise ValueError(f"ood flag {result['ood']!r} is not a bool")


def reference_mismatch(result: dict, reference, dtype: str, threshold: float) -> str | None:
    """Why ``result`` disagrees with the in-process engine's ``reference``, if it does.

    ``threshold`` is the calibrated energy threshold; the OOD flags must
    agree unless the energy sits within tolerance of it.
    """
    rtol, atol = REF_TOL[dtype]
    probs = np.asarray(result["probs"])
    if not np.allclose(probs, reference.probs, rtol=rtol, atol=atol):
        return "probs differ from the reference engine"
    if not math.isclose(result["energy"], reference.energy, rel_tol=rtol, abs_tol=atol):
        return "energy differs from the reference engine"
    top = np.sort(reference.probs)[-2:]
    if result["prediction"] != reference.label and top[1] - top[0] > atol:
        return "prediction differs from the reference engine"
    near = math.isclose(reference.energy, threshold, rel_tol=rtol, abs_tol=atol)
    if result["ood"] != reference.is_ood and not near:
        return "ood flag differs from the reference engine"
    return None


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def _send(traffic: Traffic, prefix: str):
    headers = {"Content-Type": "application/json"}

    def send(conn, index):
        return conn.request(
            "POST", "/predict", body=traffic.bodies[index],
            headers={**headers, "X-Trace-Id": f"{prefix}{index:06d}"},
        )
    return send


def _warm_up(server: Server, workload: Workload, traffic: Traffic) -> int:
    """Closed-loop traffic off the clock for :data:`WARM_UP_S`; then every
    pool worker must have answered (per-worker counts from ``/stats``)."""
    conns = [loadgen.HttpConnection(server.host, server.port) for _ in range(CONNECTIONS)]
    try:
        samples, _start = loadgen.closed_loop(_send(traffic, "w"), conns, len(traffic.bodies), WARM_UP_S)
    finally:
        for conn in conns:
            conn.close()
    if workload.workers and not _all_workers_answered(server, workload, wait=2.0):
        raise RuntimeError("warm-up ended before every pool worker answered")
    return len(samples)


def _all_workers_answered(server: Server, workload: Workload, wait: float = 0.0) -> bool:
    deadline = time.monotonic() + wait
    while True:
        per_worker = server.get_json("/stats").get("workers", {}).get("per_worker", {})
        served = [snap["counts"].get("served", 0) for snap in per_worker.values()]
        if len(served) >= workload.workers and min(served) >= 2 * workload.graphs_per_request:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)


def _timed_window(server: Server, workload: Workload, traffic: Traffic, seconds: float):
    conns = [loadgen.HttpConnection(server.host, server.port) for _ in range(CONNECTIONS)]
    try:
        send = _send(traffic, "t")
        if workload.open_loop:
            samples = loadgen.open_loop(send, conns, traffic.offsets)
            start = samples[0].due
        else:
            samples, start = loadgen.closed_loop(send, conns, len(traffic.bodies), seconds,
                                                min_count=MIN_TIMED_REQUESTS)
    finally:
        for conn in conns:
            conn.close()
    return samples, start


def _judge(samples, workload: Workload, traffic: Traffic, artifact, calibration, seed: int):
    """Check every answer.

    Returns one verdict per sample (None when it passed) and the parsed
    results of the requests that passed, by request index.
    """
    from repro.serve import InferenceEngine

    verdicts = []            # None = ok, else the reason
    parsed = {}
    for sample in samples:
        if sample.status != 200:
            verdicts.append(f"status {sample.status}")
            continue
        try:
            results = parse_response(sample.body, workload.graphs_per_request)
            for result in results:
                check_result(result, workload.dtype)
        except (ValueError, KeyError, TypeError) as err:
            verdicts.append(f"bad body: {err}")
            continue
        parsed[sample.index] = results
        verdicts.append(None)

    rng = np.random.default_rng([seed, 7])
    answered = sorted(parsed)
    picked = sorted(rng.choice(answered, size=min(REFERENCE_SAMPLE, len(answered)), replace=False))
    engine = InferenceEngine(artifact, dtype=workload.dtype)
    threshold = engine.calibrate(calibration).threshold
    graphs = [g for i in picked for g in traffic.graphs[i]]
    references = iter(engine.predict(graphs))
    position = {sample.index: k for k, sample in enumerate(samples)}
    for index in picked:
        for result in parsed[index]:
            reason = reference_mismatch(result, next(references), workload.dtype, threshold)
            if reason is not None and verdicts[position[index]] is None:
                verdicts[position[index]] = reason
                parsed.pop(index, None)
    return verdicts, parsed


def timed_request_count(workload: Workload, seconds: float) -> int:
    """Open loop: the requests due in ``seconds``; closed loop: the inputs
    generated for it.  Never fewer than :data:`MIN_TIMED_REQUESTS`."""
    rate = ONLINE_RATE if workload.open_loop else BULK_MAX_RPS
    return max(MIN_TIMED_REQUESTS, math.ceil(rate * seconds))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    work_dir = os.path.join(common.STATE_DIR, f"{workload_name}-{seed}-{os.getpid()}")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return _run(workload, seed, seconds, trace, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(workload: Workload, seed: int, seconds: float, trace: bool, work_dir: str) -> dict:
    artifact, calibration = build_deployment(workload, work_dir)
    rng = np.random.default_rng([seed, 1])
    warm = make_traffic(workload, rng, workload.warm_up_requests)
    timed = make_traffic(workload, rng, timed_request_count(workload, seconds))

    if not trace:
        return _measure(workload, seed, seconds, work_dir, artifact, calibration, warm, timed,
                        launches=SETUP_LAUNCHES)
    plain = _measure(workload, seed, seconds, work_dir, artifact, calibration, warm, timed, launches=1)
    spans_dir = os.path.join(work_dir, "spans")
    os.makedirs(spans_dir)
    traced = _measure(workload, seed, seconds, work_dir, artifact, calibration, warm, timed,
                      launches=1, spans_dir=spans_dir)
    dumps = []
    for name in sorted(os.listdir(spans_dir)):
        if name.endswith(".json"):
            with open(os.path.join(spans_dir, name)) as fh:
                dumps.append(json.load(fh))
    traced["ledger"] = serving_ledger(dumps, traced, plain, workload)
    traced["chrome_trace"] = ledger.chrome_trace(dumps)
    return traced


def _measure(workload, seed, seconds, work_dir, artifact, calibration, warm, timed,
             launches: int, spans_dir: str | None = None) -> dict:
    setups = []
    for _ in range(launches - 1):
        probe = Server(workload, work_dir)
        setups.append(probe.setup_s)
        probe.stop()
    server = Server(workload, work_dir, spans_dir=spans_dir)
    setups.append(server.setup_s)
    try:
        warm_sent = _warm_up(server, workload, warm)
        samples, start = _timed_window(server, workload, timed, seconds)
        mem = server.memory_mib()
    finally:
        server.stop()
    verdicts, parsed = _judge(samples, workload, timed, artifact, calibration, seed)
    outcome = summarise(samples, start, verdicts, parsed, timed, setups, mem)
    outcome["warm_up_requests"] = warm_sent
    return outcome


def summarise(samples, start: float, verdicts: list, parsed: dict, traffic: Traffic,
              setups: list[float], mem_mib: float) -> dict:
    """End-to-end metrics of one timed window, from what the client saw."""
    latencies = [s.latency * 1e3 for s in samples]
    window = max(s.done for s in samples) - start
    ok_graphs = sum(len(results) for results in parsed.values())
    nll, ood_hits = 0.0, 0
    for index, results in parsed.items():
        for graph, shifted, result in zip(traffic.graphs[index], traffic.shifted[index], results):
            nll -= math.log(max(result["probs"][int(graph.y)], 1e-12))
            ood_hits += result["ood"] == shifted
    failed = sum(v is not None for v in verdicts)
    return {
        "attempted": len(samples),
        "failed": failed,
        "failures": sorted({v for v in verdicts if v is not None})[:10],
        "samples": samples,
        "window_s": window,
        "values": {
            "setup_s": common.median(setups),
            "mem_mib": mem_mib,
            "success_rate": (len(samples) - failed) / len(samples),
            "latency_p50_ms": common.percentile(latencies, 50.0),
            "latency_p90_ms": common.percentile(latencies, 90.0),
            "graphs_per_s": ok_graphs / window,
            "loss_nats": nll / max(ok_graphs, 1),
            "ood_accuracy": ood_hits / max(ok_graphs, 1),
        },
        "counts": {
            "setup_samples": len(setups),
            "latency_samples": len(latencies),
            "beyond_p99": common.samples_beyond(len(latencies), 99.0),
            # Reported, not gated: on a shared 2-core VM its run-to-run
            # spread exceeds any allowed bound (see README.md).
            "latency_p99_ms": common.percentile(latencies, 99.0),
            "graphs_answered": ok_graphs,
        },
        "late_p99_ms": common.percentile([s.late * 1e3 for s in samples], 99.0),
    }


# ----------------------------------------------------------------------
# Per-layer ledger
# ----------------------------------------------------------------------

def serving_ledger(dumps: list[dict], traced: dict, plain: dict, workload: Workload) -> dict:
    """Per-request means of each layer over the timed requests of the traced run."""
    samples = traced["samples"]
    timed = {f"t{s.index:06d}": s for s in samples if s.status == 200}
    n = max(len(timed), 1)

    def is_timed(trace) -> bool:
        if isinstance(trace, list):
            return any(t in timed for t in trace)
        return trace in timed

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    handler_wall: dict[str, float] = {}
    for dump in dumps:
        spans = dump["spans"]
        for span, own in zip(spans, ledger.self_times(spans)):
            name, trace = span[ledger.NAME], span[ledger.TRACE]
            if not is_timed(trace) or span[ledger.END] is None:
                continue
            totals[name] = totals.get(name, 0.0) + own
            counts[name] = counts.get(name, 0) + 1
            if name == "net.handler":
                handler_wall[trace] = span[ledger.END] - span[ledger.START]
    events: dict[str, list] = {}
    waits: dict[str, float] = {}
    for dump in dumps:
        for name, trace, value in dump["events"]:
            if not is_timed(trace):
                continue
            events.setdefault(name, []).append(value)
            if name == "batcher.queue_wait":
                waits[trace] = max(waits.get(trace, 0.0), value)

    mean_latency = sum(s.latency for s in timed.values()) / n * 1e3
    outside = sum(timed[t].latency - wall for t, wall in handler_wall.items()) / n * 1e3
    graphs = n * workload.graphs_per_request
    per_request = {name: totals.get(span_name, 0.0) / n * 1e3 for name, span_name in (
        ("net.handler_ms", "net.handler"),
        ("wire.decode_ms", "wire.decode"),
        ("wire.encode_ms", "wire.encode"),
        ("artifact.validate_ms", "artifact.validate"),
        ("graph.pack_ms", "graph.pack"),
        ("encoders.forward_ms", "encoders.forward"),
        ("msgpass.build_ms", "msgpass.build"),
        ("ood.score_ms", "ood.score"),
        ("pool.transfer_ms", "pool.transfer"),
    )}
    per_request["net.outside_ms"] = outside
    per_request["batcher.queue_wait_ms"] = sum(waits.values()) / n * 1e3
    lookups = len(events.get("msgpass.lookup", []))
    builds = counts.get("msgpass.build", 0)
    packed = events.get("batcher.graphs", [])
    profile = _sum_profiles(dumps)
    rows = {
        **per_request,
        "artifact.validate_per_graph": counts.get("artifact.validate", 0) / max(graphs, 1),
        "batcher.graphs_per_forward": sum(packed) / max(len(packed), 1),
        "msgpass.builds": builds / n,
        "msgpass.cache_hit_share": (1.0 - builds / lookups) if lookups else 0.0,
        "gen.late_p99_ms": traced["late_p99_ms"],
        **{f"kernel.{op}.ms": profile.get(op, {}).get("seconds", 0.0) / n * 1e3 for op in common.KERNEL_OPS},
        **{f"kernel.{op}.mb": profile.get(op, {}).get("bytes", 0.0) / n / 1e6 for op in common.KERNEL_OPS},
    }
    plain_mean = sum(s.latency for s in plain["samples"]) / len(plain["samples"]) * 1e3
    if not workload.open_loop:
        # Closed loop: a request's cost is the window time per request.
        mean_cost, plain_cost = traced["window_s"] / n, plain["window_s"] / len(plain["samples"])
        rows["trace.overhead"] = mean_cost / plain_cost
    else:
        rows["trace.overhead"] = mean_latency / plain_mean
    return {"rows": rows, "mean_ms": mean_latency, "unit": "request", "count": n}


def _sum_profiles(dumps: list[dict]) -> dict:
    total: dict[str, dict] = {}
    for dump in dumps:
        for op, entry in (dump.get("profile") or {}).items():
            slot = total.setdefault(op, {"calls": 0, "seconds": 0.0, "bytes": 0})
            for key in slot:
                slot[key] += entry[key]
    return total
