"""Traced launch of the serving CLI: ``python -m repro.serve`` plus spans.

Turns on ``repro.obs.profile.profile_mode``, installs the benchmark's
span wrappers at the names the serving code resolves, then hands its
arguments to ``repro.serve.__main__.main`` unchanged.  Pool workers are
forked from this process, so they inherit every wrapper; each process
writes its spans to ``$PERFBENCH_SPANS_DIR/spans-<pid>.json`` when it
ends (the parent after the SIGTERM drain, a worker when its serve loop
returns).

Requests are keyed by the ``X-Trace-Id`` the load generator sends;
kernel-profile counters restart at the first request whose id starts
with ``t`` (the timed window), so they cover the window only.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types

TIMED_PREFIX = "t"


def install(spans_dir: str):
    """Wrap the serving layers; returns the parent's recorder."""
    import multiprocessing.queues as mpq

    import repro.encoders.attention as attention
    import repro.encoders.conv as conv
    import repro.graph.segment as segment
    import repro.serve.net as net
    import repro.serve.pool as pool
    import repro.serve.wire as wire
    from repro.graph.data import GraphBatch
    from repro.obs.profile import profile_snapshot, reset_profile
    from repro.serve.artifact import FeatureSchema
    from repro.serve.engine import InferenceEngine
    from repro.serve.futures import PendingResult

    from perfbench.ledger import Recorder

    rec = Recorder()
    timed = {"seen": False}

    def dump() -> None:
        rec.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.json"), profile=profile_snapshot())

    def restart_profile_on_first_timed(traces) -> None:
        if not timed["seen"] and any(t and t.startswith(TIMED_PREFIX) for t in traces):
            timed["seen"] = True
            reset_profile()

    # -- HTTP handler thread -------------------------------------------
    def handler_trace(args, _kwargs):
        trace = args[0].headers.get("X-Trace-Id")
        restart_profile_on_first_timed([trace])
        return trace

    rec.wrap(net._Handler, "do_POST", "net.handler", trace_of=handler_trace)

    # ``json`` as repro.serve.net resolves it, with loads/dumps timed.
    net.json = types.SimpleNamespace(loads=json.loads, dumps=json.dumps)
    rec.wrap(net.json, "loads", "wire.decode")
    rec.wrap(net.json, "dumps", "wire.encode")
    rec.wrap(net, "graph_from_json", "wire.decode")
    rec.wrap(net, "result_to_json", "wire.encode")
    rec.wrap(wire, "result_to_json", "wire.encode")
    rec.wrap(FeatureSchema, "validate_graph", "artifact.validate")
    rec.wrap(PendingResult, "result", "net.wait")

    # -- micro-batch (engine thread or pool worker) ---------------------
    def engine_batch_trace(args, _kwargs):
        now = time.monotonic()
        traces = []
        for _graph, pending, _deadline in args[1]:
            traces.append(pending.trace_id)
            if pending.enqueued_at is not None:
                rec.event("batcher.queue_wait", now - pending.enqueued_at, trace=pending.trace_id)
        return traces

    def pool_batch_trace(args, _kwargs):
        now = time.monotonic()
        traces = []
        for _req, _graph, _deadline, trace, enqueued in args[1]:
            traces.append(trace)
            if enqueued is not None:
                rec.event("batcher.queue_wait", now - enqueued, trace=trace)
        restart_profile_on_first_timed(traces)
        return traces

    def packed(_batch, args, _kwargs):
        rec.event("batcher.graphs", len(args[1]))    # args[0] is the class

    rec.wrap(InferenceEngine, "_run_pending", "engine.batch", trace_of=engine_batch_trace)
    rec.wrap(pool, "_serve_items", "pool.batch", trace_of=pool_batch_trace)
    rec.wrap(GraphBatch, "from_graphs", "graph.pack", after=packed)
    rec.wrap(InferenceEngine, "_forward", "encoders.forward")
    rec.wrap(InferenceEngine, "_combine", "ood.score")
    rec.wrap(segment, "_build_operator", "msgpass.build")
    rec.count(conv, "message_pass_operator", "msgpass.lookup")
    rec.count(attention, "message_pass_operator", "msgpass.lookup")

    # -- parent <-> worker messages ------------------------------------
    pickler = mpq._ForkingPickler

    def message_trace(obj):
        if isinstance(obj, tuple) and len(obj) == 5:
            return obj[3]                       # request: (id, graph, deadline, trace, t)
        if isinstance(obj, tuple) and len(obj) == 3 and isinstance(obj[2], dict):
            return obj[2].get("trace_id")       # response: (id, status, payload)
        return None

    class _TimedPickler(pickler):
        @classmethod
        def dumps(cls, obj, protocol=None):
            start = time.monotonic()
            data = pickler.dumps(obj, protocol)
            rec.record("pool.transfer", start, time.monotonic(), message_trace(obj))
            return data

        @staticmethod
        def loads(data, *args, **kwargs):
            start = time.monotonic()
            obj = pickler.loads(data, *args, **kwargs)
            rec.record("pool.transfer", start, time.monotonic(), message_trace(obj))
            return obj

    mpq._ForkingPickler = _TimedPickler

    worker_main = pool._worker_main

    def traced_worker_main(*args, **kwargs):
        # A forked worker starts with copies of the parent's spans and
        # profile counters; it records and dumps only its own.
        rec.spans.clear()
        rec.events.clear()
        rec.reset_locks()
        reset_profile()
        timed["seen"] = False
        try:
            return worker_main(*args, **kwargs)
        finally:
            dump()

    pool._worker_main = traced_worker_main
    return rec, dump


def main(argv=None) -> int:
    from repro.obs.profile import profile_mode
    from repro.serve.__main__ import main as serve_main

    with profile_mode():
        _rec, dump = install(os.environ["PERFBENCH_SPANS_DIR"])
        try:
            return serve_main(argv)
        finally:
            dump()


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    raise SystemExit(main())
