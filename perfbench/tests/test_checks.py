"""Output checks, the span recorder, and the missing-source refusal."""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

from perfbench import common, ledger, serve


def _result(**overrides):
    result = {"prediction": 1, "output": [0.0, 1.0], "probs": [0.25, 0.75],
              "energy": -1.3, "ood": False}
    result.update(overrides)
    return result


def test_well_formed_result_passes():
    serve.check_result(_result(), "float64")


@pytest.mark.parametrize("bad", [
    {"probs": [0.3, 0.75]},
    {"prediction": 0},
    {"ood": None},
    {"energy": float("inf")},
    {"probs": [0.25, float("nan")]},
])
def test_malformed_results_fail(bad):
    with pytest.raises(ValueError):
        serve.check_result(_result(**bad), "float64")


def test_float32_sum_tolerance_is_wider():
    serve.check_result(_result(probs=[0.25, 0.75 + 5e-5]), "float32")
    with pytest.raises(ValueError):
        serve.check_result(_result(probs=[0.25, 0.75 + 5e-5]), "float64")


def test_bare_nan_is_not_json():
    with pytest.raises(ValueError):
        serve.parse_response(b'{"energy": NaN}', 1)
    body = json.dumps({"results": [_result(), _result()]}).encode()
    assert len(serve.parse_response(body, 2)) == 2
    with pytest.raises(ValueError):
        serve.parse_response(body, 4)


def test_reference_mismatch():
    reference = types.SimpleNamespace(probs=np.array([0.25, 0.75]), energy=-1.3, label=1, is_ood=False)

    def mismatch(result, threshold=0.0):
        return serve.reference_mismatch(result, reference, "float64", threshold)

    assert mismatch(_result()) is None
    assert mismatch(_result(probs=[0.26, 0.74]))
    assert mismatch(_result(energy=-1.2))
    assert mismatch(_result(prediction=0))
    assert mismatch(_result(ood=True))
    assert mismatch(_result(ood=True), threshold=-1.3) is None   # on the threshold: either flag


class _Widget:
    @classmethod
    def make(cls, n):
        return [cls() for _ in range(n)]

    def work(self, x):
        return self.inner(x) + 1

    def inner(self, x):
        return x


def test_recorder_wraps_methods_and_nests_spans():
    rec = ledger.Recorder()
    rec.wrap(_Widget, "make", "make", trace_of=lambda args, kwargs: "r1")
    rec.wrap(_Widget, "work", "work")
    rec.wrap(_Widget, "inner", "inner")
    try:
        widgets = _Widget.make(2)
        assert len(widgets) == 2 and isinstance(widgets[0], _Widget)
        assert widgets[0].work(1) == 2
    finally:
        rec.restore()
    assert _Widget.work.__name__ == "work" and not hasattr(_Widget.work, "__wrapped__")
    names = [s[ledger.NAME] for s in rec.spans]
    assert names == ["make", "work", "inner"]
    assert rec.spans[0][ledger.TRACE] == "r1"
    assert rec.spans[2][ledger.PARENT] == 1
    own = ledger.self_times(rec.spans)
    work = rec.spans[1][ledger.END] - rec.spans[1][ledger.START]
    assert own[1] + own[2] == pytest.approx(work)
    trace = ledger.chrome_trace([{"pid": 1, "spans": rec.spans}])
    assert [e["name"] for e in trace["traceEvents"]] == names


def test_missing_source_tree_exits_without_a_result(tmp_path):
    shutil.copytree(os.path.join(common.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-online", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    assert not (tmp_path / ".perfbench").exists()
