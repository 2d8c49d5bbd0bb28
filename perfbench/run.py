"""Run one benchmark workload and print its result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``train-oodgnn``, ``serve-online``, ``serve-bulk`` (see
``perfbench/README.md``).  Standard output ends with one JSON line,
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``.  The lines
before it carry the environment stamp, the sample counts and, when
traced, the per-layer ledger.  Exits 2 without a result when the source
tree it measures (``src/repro``) is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

# One BLAS thread in this process too (it generates inputs and runs the
# reference engine); must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import common  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def ledger_report(workload: str, ledger: dict) -> tuple[dict, list[str]]:
    """All per-layer metrics plus the printable ledger table.

    Ledger rows (``common.LEDGER_ROWS``) and ``unattributed_ms`` add up
    to the measured mean per step or per request.  Kernel rows are
    inclusive times from ``repro.obs.profile`` and overlap the ledger;
    their MB are computed from output array sizes, not measured traffic.
    """
    rows = {name: 0.0 for name, _unit, _better in common.PER_LAYER}
    rows.update(ledger["rows"])
    attributed = sum(rows[name] for name in common.LEDGER_ROWS)
    rows["unattributed_ms"] = ledger["mean_ms"] - attributed
    lines = [
        f"ledger {workload}: mean {ledger['mean_ms']:.3f} ms per {ledger['unit']} "
        f"over {ledger['count']} {ledger['unit']}s",
    ]
    for name in (*common.LEDGER_ROWS, "unattributed_ms"):
        if rows[name] or name == "unattributed_ms":
            share = 100.0 * rows[name] / ledger["mean_ms"] if ledger["mean_ms"] else 0.0
            lines.append(f"  {name:<28} {rows[name]:>10.3f}  {share:6.1f}%")
    lines.append(f"  {'sum':<28} {attributed + rows['unattributed_ms']:>10.3f}")
    lines.append("other rows (counts, ratios; kernel times are inclusive and overlap the"
                 " ledger, kernel MB are computed from output sizes):")
    for name, unit, _better in common.PER_LAYER:
        if name not in common.LEDGER_ROWS and name != "unattributed_ms":
            lines.append(f"  {name:<28} {rows[name]:>10.4f} {unit}")
    return rows, lines


def _exit_on_sigterm(_signum, _frame) -> None:
    # SystemExit unwinds through the ``finally`` blocks that stop the
    # server process group and the training child.
    raise SystemExit(128 + signal.SIGTERM)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    if not os.path.isfile(os.path.join(common.SRC, "repro", "__init__.py")):
        print(f"perfbench: no source tree at {common.SRC}; nothing to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    os.makedirs(common.STATE_DIR, exist_ok=True)

    load_before = os.getloadavg()[0]
    stamp = common.environment_stamp()
    if args.workload == "train-oodgnn":
        from perfbench import train as workload
        outcome = workload.run(args.seed, args.seconds, bool(args.trace))
    else:
        from perfbench import serve as workload
        outcome = workload.run(args.workload, args.seed, args.seconds, bool(args.trace))
    load_after = os.getloadavg()[0]
    stamp.update({
        "load_before": load_before,
        "load_after": load_after,
        "loaded_start": load_before > (stamp.get("nproc") or 1),
    })

    print(json.dumps({"env": stamp}))
    print(json.dumps({"counts": outcome.get("counts", {}), "failures": outcome["failures"]}))
    if args.trace:
        metrics_values, lines = ledger_report(args.workload, outcome["ledger"])
        print("\n".join(lines))
        trace_path = os.path.join(common.STATE_DIR, f"trace-{args.workload}-{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump(outcome["chrome_trace"], fh)
        print(f"chrome trace: {os.path.relpath(trace_path, common.ROOT)}")
        metrics = common.metric_block(metrics_values, common.per_layer_table())
    else:
        metrics = common.metric_block(outcome["values"], common.end_to_end_table())
    correct = not outcome["failures"] and outcome["failed"] == 0
    print(common.result_line(correct, outcome["attempted"], outcome["failed"], metrics), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
