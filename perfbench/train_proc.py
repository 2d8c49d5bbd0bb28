"""The ``train-oodgnn`` workload's training process.

Runs Algorithm 1 through the public library API —
``OODGNNTrainer.fit_many`` over K=4 seed-stacked OOD-GNN encoders with
``OODGNNConfig`` defaults — on the TRIANGLES size-shift task at 3x scale,
then scores each seed on the size-shifted ``Test(large)`` split.  Prints
one JSON line.  The dataset is fixed, so every run does the same work;
the workload seed picks the K initialisations and the mini-batch order.

Modes:

* ``probe`` — exit as soon as the first optimisation step starts (a
  set-up sample).
* ``run`` — the untraced run.  Two O(1)-per-step hooks stay installed:
  step boundaries (at the mini-batch iterator) and loss finiteness.
* ``trace`` — the same run with the span wrappers of ``ledger.py`` and
  ``repro.obs.profile.profile_mode`` on; spans go to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

K_SEEDS = 4
EPOCHS = 12
SCALE = 3.0          # triangles at 3x: 900 train graphs
NUM_TEST = 900       # size-shifted Test(large) graphs: 5x the 3x default, so
                     # ood_accuracy is not dominated by test-set sampling noise
DATASET = "triangles"
DATA_SEED = 0        # the task is fixed; the workload seed drives init and batch order


def _install_hooks(marks: list, losses: list, probe: bool) -> None:
    """Step boundaries and per-step losses, read at the names fit_many resolves."""
    import repro.core.ood_gnn as ood_gnn

    iterate = ood_gnn.iterate_minibatches
    loss_fn = ood_gnn.seed_prediction_loss

    def timed_minibatches(*args, **kwargs):
        epoch_marks = []
        marks.append(epoch_marks)
        batches = iterate(*args, **kwargs)
        while True:
            now = time.monotonic()
            if probe:
                print(json.dumps({"first_step": now}), flush=True)
                os._exit(0)
            epoch_marks.append(now)
            try:
                batch = next(batches)
            except StopIteration:
                return
            yield batch

    def checked_loss(*args, **kwargs):
        total, per_seed = loss_fn(*args, **kwargs)
        losses.append(all(math.isfinite(float(v)) for v in per_seed))
        return total, per_seed

    ood_gnn.iterate_minibatches = timed_minibatches
    ood_gnn.seed_prediction_loss = checked_loss


def _install_tracing():
    """Span wrappers for the training layers; returns the recorder."""
    import repro.core.ood_gnn as ood_gnn
    import repro.encoders.attention as attention
    import repro.encoders.conv as conv
    import repro.graph.segment as segment
    from repro.autograd.tensor import Tensor
    from repro.core.decorrelation import SampleWeightLearner
    from repro.core.global_local import GlobalLocalWeightEstimator
    from repro.encoders.models import SeedGraphClassifier
    from repro.graph.data import GraphBatch
    from repro.nn.layers import SeedMLP
    from repro.nn.optim import Adam, Optimizer

    from perfbench.ledger import Recorder

    rec = Recorder()

    def reweight_outcome(results, _args, _kwargs):
        for result in results:
            rec.event("core.reweight_epochs", len(result.losses))
            if result.initial_loss > 0:
                rec.event("core.decorr_reduction", 1.0 - result.final_loss / result.initial_loss)

    rec.wrap(GraphBatch, "from_graphs", "graph.pack")
    rec.wrap(SeedGraphClassifier, "representations", "encoders.forward")
    rec.wrap(SeedMLP, "forward", "encoders.forward")
    rec.wrap(Tensor, "backward", "autograd.backward")
    rec.wrap(ood_gnn, "seed_prediction_loss", "nn.loss")
    rec.wrap(ood_gnn, "learn_many", "core.reweight", after=reweight_outcome)
    rec.wrap(SampleWeightLearner, "decorrelation_loss", "core.warmup_loss")
    rec.wrap(GlobalLocalWeightEstimator, "concat", "core.memory")
    rec.wrap(GlobalLocalWeightEstimator, "update", "core.memory")
    rec.wrap(Optimizer, "zero_grad", "nn.optim")
    rec.wrap(Adam, "step", "nn.optim")
    rec.wrap(ood_gnn, "clip_grad_norm_per_seed", "nn.optim")
    rec.wrap(segment, "_build_operator", "msgpass.build")
    rec.count(conv, "message_pass_operator", "msgpass.lookup")
    rec.count(attention, "message_pass_operator", "msgpass.lookup")
    return rec


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("probe", "run", "trace"), default="run")
    parser.add_argument("--spans", help="trace mode: where to write the spans")
    args = parser.parse_args(argv)

    import numpy as np

    from repro.core.ood_gnn import OODGNN, OODGNNConfig, OODGNNTrainer
    from repro.datasets import load_dataset
    from repro.training.loop import evaluate_model

    marks: list = []
    losses: list = []
    _install_hooks(marks, losses, probe=args.mode == "probe")
    recorder = None
    if args.mode == "trace":
        recorder = _install_tracing()

    data = load_dataset(DATASET, seed=DATA_SEED, scale=SCALE, num_test=NUM_TEST)
    info = data.info
    config = OODGNNConfig(epochs=EPOCHS)
    trainer = OODGNNTrainer(
        None, info.task_type, np.random.default_rng(args.seed), metric=info.metric, config=config
    )

    def model_factory(seed):
        rng = np.random.default_rng([args.seed, seed])
        return OODGNN(info.feature_dim, info.model_out_dim, rng, config=config)

    profile = None
    start = time.monotonic()
    if recorder is not None:
        from repro.obs.profile import profile_mode, profile_snapshot

        with profile_mode():
            result = trainer.fit_many(data.train, seeds=range(K_SEEDS), model_factory=model_factory)
            profile = profile_snapshot()
    else:
        result = trainer.fit_many(data.train, seeds=range(K_SEEDS), model_factory=model_factory)
    end = time.monotonic()

    test = data.tests["Test(large)"]
    accuracies = [evaluate_model(model, test, info.metric) for model in result.models]
    final_losses = [history.train_loss[-1] for history in result.histories]
    step_times = [b - a for epoch in marks for a, b in zip(epoch, epoch[1:])]
    report = {
        "first_step": marks[0][0],
        "fit_start": start,
        "fit_end": end,
        "fit_s": end - start,
        "steps": len(step_times),
        "step_s": step_times,
        "finite_steps": sum(losses),
        "loss_steps": len(losses),
        "train_loss": float(np.mean(final_losses)),
        "train_loss_repr": [repr(v) for v in final_losses],
        "ood_accuracy": float(np.mean(accuracies)),
        "ood_accuracy_repr": [repr(float(v)) for v in accuracies],
        "seed_graphs": K_SEEDS * EPOCHS * len(data.train),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if recorder is not None:
        recorder.dump(args.spans, profile=profile, window=[start, end])
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    raise SystemExit(main())
