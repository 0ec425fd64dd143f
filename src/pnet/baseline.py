"""Former baseline-network names, kept as aliases for the benchmark.

Fixed-activation baselines are ordinary `pnet.network.PNetwork` nets whose
layers carry fixed activation kinds; they are built by
`pnet.network.nguyen_widrow_init` and run through
`pnet.network.forward_batch`, `pnet.training.backprop_batch` and
`pnet.training.train`.  The benchmark's worker and tracer
(``perfbench/worker.py``, ``perfbench/tracing.py``) still look these names
up here; the module goes once they use the names above.  `train_fixed`
keeps a ``max_gradient`` keyword only for the worker's ``max_gradient=0.0``.
"""

from __future__ import annotations

from dataclasses import replace

from .data import Dataset
from .network import PNetwork, forward_batch, nguyen_widrow_init
from .training import TrainConfig, TrainLog, backprop_batch, mse, train

__all__ = ["mse", "nguyen_widrow_init", "forward_batch_fixed", "backprop_batch_fixed", "train_fixed"]

forward_batch_fixed = forward_batch
backprop_batch_fixed = backprop_batch


def train_fixed(
    net: PNetwork, data: Dataset, cfg: TrainConfig, max_gradient: float = 0.0
) -> tuple[PNetwork, TrainLog]:
    """`train` with full-batch updates; ``max_gradient`` must be 0, as training stops on its budget or error only."""
    if max_gradient != 0:
        raise ValueError(f"max_gradient must be 0, got {max_gradient!r}")
    return train(net, data, replace(cfg, update="batch"))
