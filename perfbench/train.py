"""The ``train-oodgnn`` workload: Algorithm 1 through ``fit_many``.

Every sample runs in a fresh process (``train_proc.py``).  ``setup_s`` is
the median, over :data:`SETUP_LAUNCHES` launches, of launch → first
optimisation step (imports, dataset generation, model build and seed
stacking included); the last launch trains to the end.  The training is
fixed work — K=4 seeds x 12 epochs x 900 graphs — so ``--seconds`` does
not change it.
"""

from __future__ import annotations

import json
import os
import time

from perfbench import common, ledger

SETUP_LAUNCHES = 5
TIMEOUT_S = 170.0


def _launch(seed: int, mode: str, spans: str | None = None) -> tuple[float, dict]:
    args = [os.path.join(common.ROOT, "perfbench", "train_proc.py"), "--seed", str(seed), "--mode", mode]
    if spans is not None:
        args += ["--spans", spans]
    launched = time.monotonic()
    report = common.run_child(args, timeout=TIMEOUT_S)
    return report["first_step"] - launched, report


def _determinism(seed: int, report: dict) -> str | None:
    """Compare bitwise with an earlier run of this seed on the same source, if any."""
    outcome = {"train_loss": report["train_loss_repr"], "ood_accuracy": report["ood_accuracy_repr"]}
    path = os.path.join(common.STATE_DIR, f"train-oodgnn-{common.source_digest()}-seed{seed}.json")
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier != outcome:
            return "train_loss/ood_accuracy differ from an earlier run with the same seed"
        return None
    os.makedirs(common.STATE_DIR, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(outcome, fh)
    return None


def _values(setups: list[float], report: dict) -> dict:
    steps_ms = [s * 1e3 for s in report["step_s"]]
    return {
        "setup_s": common.median(setups),
        "mem_mib": report["peak_rss_mib"],
        "success_rate": report["finite_steps"] / report["loss_steps"],
        "latency_p50_ms": common.percentile(steps_ms, 50.0),
        "latency_p90_ms": common.percentile(steps_ms, 90.0),
        "graphs_per_s": report["seed_graphs"] / report["fit_s"],
        "loss_nats": report["train_loss"],
        "ood_accuracy": report["ood_accuracy"],
    }


def run(seed: int, seconds: float, trace: bool) -> dict:
    del seconds  # fixed work; see the module docstring
    if trace:
        return _run_traced(seed)
    setups = [_launch(seed, "probe")[0] for _ in range(SETUP_LAUNCHES - 1)]
    setup, report = _launch(seed, "run")
    setups.append(setup)
    problems = []
    if report["finite_steps"] != report["loss_steps"]:
        problems.append("non-finite training loss")
    if not 0.0 <= report["ood_accuracy"] <= 1.0:
        problems.append("accuracy outside [0, 1]")
    mismatch = _determinism(seed, report)
    if mismatch:
        problems.append(mismatch)
    return {
        "attempted": report["loss_steps"],
        "failed": report["loss_steps"] - report["finite_steps"],
        "failures": problems,
        "values": _values(setups, report),
        "counts": {"setup_samples": len(setups), "latency_samples": report["steps"],
                   "beyond_p90": common.samples_beyond(report["steps"], 90.0)},
    }


def _run_traced(seed: int) -> dict:
    _setup, plain = _launch(seed, "run")
    os.makedirs(common.STATE_DIR, exist_ok=True)
    spans_path = os.path.join(common.STATE_DIR, f"train-oodgnn-{seed}-{os.getpid()}-spans.json")
    try:
        _setup, traced = _launch(seed, "trace", spans=spans_path)
        with open(spans_path) as fh:
            dump = json.load(fh)
    finally:
        if os.path.exists(spans_path):
            os.remove(spans_path)
    problems = []
    if (traced["train_loss_repr"], traced["ood_accuracy_repr"]) != (
            plain["train_loss_repr"], plain["ood_accuracy_repr"]):
        problems.append("tracing changed the training outcome")
    rows = training_ledger(dump, traced["steps"])
    rows["trace.overhead"] = traced["fit_s"] / plain["fit_s"]
    return {
        "attempted": traced["loss_steps"],
        "failed": traced["loss_steps"] - traced["finite_steps"],
        "failures": problems,
        "ledger": {"rows": rows, "mean_ms": traced["fit_s"] / traced["steps"] * 1e3,
                   "unit": "step", "count": traced["steps"]},
        "chrome_trace": ledger.chrome_trace([dump]),
    }


def training_ledger(dump: dict, steps: int) -> dict:
    """Per-step means of each layer inside the ``fit_many`` window."""
    start, end = dump["window"]
    totals: dict[str, float] = {}
    calls: dict[str, int] = {}
    spans = dump["spans"]
    for span, own in zip(spans, ledger.self_times(spans)):
        if span[ledger.END] is None or not start <= span[ledger.START] <= end:
            continue
        totals[span[ledger.NAME]] = totals.get(span[ledger.NAME], 0.0) + own
        calls[span[ledger.NAME]] = calls.get(span[ledger.NAME], 0) + 1
    events: dict[str, list] = {}
    for name, _trace, value in dump["events"]:
        events.setdefault(name, []).append(value)

    def mean(name: str) -> float:
        values = events.get(name, [])
        return sum(values) / len(values) if values else 0.0

    lookups = len(events.get("msgpass.lookup", []))
    builds = calls.get("msgpass.build", 0)
    profile = dump.get("profile") or {}
    rows = {
        f"{name}_ms": totals.get(name, 0.0) / steps * 1e3 for name in (
            "graph.pack", "encoders.forward", "autograd.backward", "nn.loss", "core.reweight",
            "core.warmup_loss", "core.memory", "nn.optim", "msgpass.build",
        )
    }
    rows.update({
        "core.reweight_epochs": mean("core.reweight_epochs"),
        "core.decorr_reduction": mean("core.decorr_reduction"),
        "msgpass.builds": builds / steps,
        "msgpass.cache_hit_share": (1.0 - builds / lookups) if lookups else 0.0,
        **{f"kernel.{op}.ms": profile.get(op, {}).get("seconds", 0.0) / steps * 1e3 for op in common.KERNEL_OPS},
        **{f"kernel.{op}.mb": profile.get(op, {}).get("bytes", 0) / steps / 1e6 for op in common.KERNEL_OPS},
    })
    return rows
