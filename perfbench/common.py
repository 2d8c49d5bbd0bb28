"""Shared pieces of the benchmark: metric tables, statistics, environment.

Everything here runs in the benchmark's own process (``run.py``, which
is also the load generator); nothing here imports the ``repro`` package, so
the preflight check in ``run.py`` can fail cleanly when the source tree is
missing.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout (git-ignored): traces, run records.
STATE_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("train-oodgnn", "serve-online", "serve-bulk")

#: End-to-end metrics: (name, unit, better, bound).  Every workload reports
#: every one of them; README.md gives each metric's definition per
#: workload.  A bound is the share of the parent's median by which the
#: metric may get worse; each is at least three times the run-to-run
#: spread (IQR / median) measured over ten seeds.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("mem_mib", "MiB", "lower", 0.15),
    ("success_rate", "share", "higher", 0.01),
    ("latency_p50_ms", "ms", "lower", 0.24),
    ("latency_p90_ms", "ms", "lower", 0.24),
    ("graphs_per_s", "graphs/s", "higher", 0.24),
    ("loss_nats", "nats", "lower", 0.1),
    ("ood_accuracy", "share", "higher", 0.16),
)

#: The kernels ``repro.obs.profile`` times whose rows the ledger reports
#: (the top ops of the training and serving profiles).
KERNEL_OPS = (
    "tensor.backward",
    "seed.linear",
    "tensor.relu",
    "tensor.mul",
    "tensor.gather",
    "scatter.add_rows",
    "msgpass.matmul",
    "msgpass.t_matmul",
    "fused.eval",
)

#: Per-layer metrics: (name, unit, better).  Times are means per
#: optimisation step (training) or per answered request (serving); a layer
#: a workload does not run reports 0.
PER_LAYER = (
    ("graph.pack_ms", "ms", "lower"),
    ("encoders.forward_ms", "ms", "lower"),
    ("autograd.backward_ms", "ms", "lower"),
    ("nn.loss_ms", "ms", "lower"),
    ("core.reweight_ms", "ms", "lower"),
    ("core.reweight_epochs", "count", "lower"),
    ("core.decorr_reduction", "share", "higher"),
    ("core.warmup_loss_ms", "ms", "lower"),
    ("core.memory_ms", "ms", "lower"),
    ("nn.optim_ms", "ms", "lower"),
    ("msgpass.builds", "count", "lower"),
    ("msgpass.build_ms", "ms", "lower"),
    ("msgpass.cache_hit_share", "share", "higher"),
    ("net.handler_ms", "ms", "lower"),
    ("net.outside_ms", "ms", "lower"),
    ("wire.decode_ms", "ms", "lower"),
    ("wire.encode_ms", "ms", "lower"),
    ("artifact.validate_ms", "ms", "lower"),
    ("artifact.validate_per_graph", "count", "lower"),
    ("batcher.queue_wait_ms", "ms", "lower"),
    ("batcher.graphs_per_forward", "count", "higher"),
    ("ood.score_ms", "ms", "lower"),
    ("pool.transfer_ms", "ms", "lower"),
    ("gen.late_p99_ms", "ms", "lower"),
    *((f"kernel.{op}.ms", "ms", "lower") for op in KERNEL_OPS),
    *((f"kernel.{op}.mb", "MB", "lower") for op in KERNEL_OPS),
    ("unattributed_ms", "ms", "lower"),
    ("trace.overhead", "ratio", "lower"),
)

#: Rows that partition the measured mean per step / per request; with
#: ``unattributed_ms`` they add up to it.  The other rows are counts,
#: ratios or overlapping (inclusive) kernel times.
LEDGER_ROWS = (
    "graph.pack_ms",
    "encoders.forward_ms",
    "autograd.backward_ms",
    "nn.loss_ms",
    "core.reweight_ms",
    "core.warmup_loss_ms",
    "core.memory_ms",
    "nn.optim_ms",
    "msgpass.build_ms",
    "net.handler_ms",
    "net.outside_ms",
    "wire.decode_ms",
    "wire.encode_ms",
    "artifact.validate_ms",
    "batcher.queue_wait_ms",
    "ood.score_ms",
    "pool.transfer_ms",
)

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def valid_metric_name(name: str) -> bool:
    """Metric names: a letter or digit, then up to 63 of ``[A-Za-z0-9_.-]``."""
    return bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return bool(_UNIT.match(unit))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples the ``q``-th percentile leaves above it: n x (1 - q)."""
    return math.floor(n * (100.0 - q) / 100.0 + 1e-9)


def median(values) -> float:
    return percentile(values, 50.0)


# ----------------------------------------------------------------------
# Processes and environment
# ----------------------------------------------------------------------

def child_env(**extra) -> dict:
    """Environment for every process the benchmark launches.

    One BLAS thread per process: OpenBLAS otherwise starts a thread per
    core, and those threads compete with the server's and the load
    generator's own threads on a small machine.
    """
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["MKL_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("REPRO_OBS_TRACE", None)
    env.pop("REPRO_FAULTS", None)
    env.update({k: str(v) for k, v in extra.items()})
    return env


def run_child(args, timeout: float) -> dict:
    """Run a Python helper to completion; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(args)} exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if not lines:
        raise RuntimeError(f"{' '.join(args)} printed nothing:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _git_sha() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def source_digest() -> str:
    """Digest of ``src/`` — identifies the code when the checkout has no git."""
    import hashlib

    digest = hashlib.sha256()
    for base, dirs, files in os.walk(SRC):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


_PROBE = r"""
import ctypes, json, os, sys
import numpy, scipy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = None
for line in open("/proc/self/maps"):
    path = line.split()[-1]
    if "openblas" in path.lower() and ".so" in path:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
        break
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": blas.get("name"),
                  "blas_version": blas.get("version"), "blas_threads": threads}))
"""


def environment_stamp() -> dict:
    """Versions, BLAS threads and machine shape, as seen by a launched child."""
    stamp = {
        "git_sha": _git_sha(),
        "src_digest": source_digest(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    try:
        stamp.update(run_child(["-c", _PROBE], timeout=60))
    except (RuntimeError, subprocess.SubprocessError, ValueError) as err:
        stamp["probe_error"] = str(err)[:200]
    return stamp


# ----------------------------------------------------------------------
# Result line
# ----------------------------------------------------------------------

def metric_block(values: dict, table) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the names in ``table``."""
    units = dict(table)
    missing = sorted(set(units) - set(values))
    extra = sorted(set(values) - set(units))
    if missing or extra:
        raise ValueError(f"metric set mismatch: missing {missing}, undeclared {extra}")
    block = {}
    for name, unit in table:
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        block[name] = {"value": value, "unit": unit}
    return block


def end_to_end_table():
    return tuple((name, unit) for name, unit, _better, _bound in END_TO_END)


def per_layer_table():
    return tuple((name, unit) for name, unit, _better in PER_LAYER)


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    if attempted < 1:
        raise ValueError("a run attempts at least one operation")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })
