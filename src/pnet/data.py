"""Datasets: containers, synthetic generators, splitting, and CSV I/O.

Regression targets are real vectors; classification targets are one-hot
rows.  Generators take an explicit seed and draw from
`numpy.random.default_rng` so every dataset is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TASKS",
    "FITS",
    "Dataset",
    "gen_fit",
    "gen_sign",
    "gen_square",
    "gen_abs",
    "gen_activity_standin",
    "split_train_test",
    "save_csv",
    "load_csv",
]

TASKS = ("regression", "classification")


@dataclass(frozen=True)
class Dataset:
    """An immutable (inputs, targets, task) triple with shape validation."""

    inputs: np.ndarray
    targets: np.ndarray
    task: str

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}, got {self.task!r}")
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError(f"inputs and targets must be 2-d, got {inputs.shape} and {targets.shape}")
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(f"inputs have {inputs.shape[0]} rows but targets have {targets.shape[0]}")
        if inputs.shape[0] == 0:
            raise ValueError("dataset must contain at least one sample")
        if not (np.all(np.isfinite(inputs)) and np.all(np.isfinite(targets))):
            raise ValueError("inputs and targets must be finite")
        if self.task == "classification":
            if np.any((targets != 0.0) & (targets != 1.0)) or np.any(np.sum(targets, axis=1) != 1.0):
                raise ValueError("classification targets must be one-hot rows")
        inputs.setflags(write=False)
        targets.setflags(write=False)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def target_dim(self) -> int:
        return self.targets.shape[1]

    @property
    def labels(self) -> np.ndarray:
        """Class indices (argmax of the one-hot rows); classification only."""
        if self.task != "classification":
            raise ValueError("labels are only defined for classification datasets")
        return np.argmax(self.targets, axis=1)


# The regression fits, by data kind: each target is this function of the input.
FITS = {"sign": np.sign, "square": np.square, "abs": np.abs}


def gen_fit(kind: str, n: int, lo: float, hi: float, seed: int = 0) -> Dataset:
    """y = FITS[kind](x) on n points drawn uniformly from [lo, hi]."""
    if kind not in FITS:
        raise ValueError(f"fit kind must be one of {', '.join(FITS)}, got {kind!r}")
    if n < 1 or not lo < hi:
        raise ValueError(f"need n >= 1 and lo < hi, got n={n}, [{lo}, {hi}]")
    rng = np.random.default_rng(seed)
    x = rng.uniform(lo, hi, size=(n, 1))
    return Dataset(inputs=x, targets=FITS[kind](x), task="regression")


def gen_sign(n: int, lo: float = -5.0, hi: float = 5.0, seed: int = 0) -> Dataset:
    """y = sign(x) on n points drawn uniformly from [lo, hi]."""
    return gen_fit("sign", n, lo, hi, seed)


def gen_square(n: int, seed: int = 0) -> Dataset:
    """y = x^2 on n points drawn uniformly from [-1, 1]."""
    return gen_fit("square", n, -1.0, 1.0, seed)


def gen_abs(n: int, seed: int = 0) -> Dataset:
    """y = |x| on n points drawn uniformly from [-1, 1]."""
    return gen_fit("abs", n, -1.0, 1.0, seed)


def gen_activity_standin(per_class: int = 1000, seed: int = 977, n_classes: int = 5, dim: int = 60) -> Dataset:
    """Synthetic stand-in for a wearable-sensor activity pool.

    Five unit-variance Gaussian clusters in 60 dimensions, one per
    activity class, with means drawn uniformly on the sphere of radius 3.
    That separation leaves the classes overlapping enough that trained
    nets land in the single-digit-percent error regime rather than zero.
    Rows are class-major: samples of class c occupy block c.
    """
    if per_class < 1 or n_classes < 2 or dim < 1:
        raise ValueError("need per_class >= 1, n_classes >= 2, dim >= 1")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, dim))
    means *= 3.0 / np.linalg.norm(means, axis=1, keepdims=True)
    inputs = np.concatenate(
        [means[c] + rng.standard_normal((per_class, dim)) for c in range(n_classes)]
    )
    targets = np.zeros((n_classes * per_class, n_classes))
    targets[np.arange(n_classes * per_class), np.repeat(np.arange(n_classes), per_class)] = 1.0
    return Dataset(inputs=inputs, targets=targets, task="classification")


def split_train_test(data: Dataset, train_per_class: int, test_total: int, seed: int) -> tuple[Dataset, Dataset]:
    """Class-balanced train set plus a disjoint test set from the rest.

    Picks ``train_per_class`` samples per class without replacement, then
    ``test_total`` samples uniformly from everything left over.
    """
    if data.task != "classification":
        raise ValueError("split_train_test needs a classification dataset")
    for name, count in (("train_per_class", train_per_class), ("test_total", test_total)):
        if count < 1:
            raise ValueError(f"{name} must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    labels = data.labels
    classes = np.unique(labels)
    train_idx = []
    for c in classes:
        members = np.flatnonzero(labels == c)
        if members.size < train_per_class:
            raise ValueError(f"class {c} has {members.size} samples, need {train_per_class} for training")
        train_idx.append(rng.permutation(members)[:train_per_class])
    train_idx = np.concatenate(train_idx)
    mask = np.ones(data.n, dtype=bool)
    mask[train_idx] = False
    remainder = np.flatnonzero(mask)
    if remainder.size < test_total:
        raise ValueError(f"only {remainder.size} samples left for a test set of {test_total}")
    test_idx = rng.permutation(remainder)[:test_total]
    make = lambda idx: Dataset(inputs=data.inputs[idx], targets=data.targets[idx], task=data.task)
    return make(train_idx), make(test_idx)


def save_csv(data: Dataset, path: str) -> None:
    """Write the dataset as CSV: x1..xn, y1..ym, task (17 digits)."""
    header = (
        [f"x{i + 1}" for i in range(data.feature_dim)]
        + [f"y{j + 1}" for j in range(data.target_dim)]
        + ["task"]
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for xi, yi in zip(data.inputs, data.targets):
            row = [format(v, ".17g") for v in xi] + [format(v, ".17g") for v in yi]
            fh.write(",".join(row) + f",{data.task}\n")


def load_csv(path: str) -> Dataset:
    """Read a dataset written by `save_csv`; errors cite line numbers."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    n_x = sum(1 for h in header if h.startswith("x") and h[1:].isdigit())
    n_y = sum(1 for h in header if h.startswith("y") and h[1:].isdigit())
    if n_x == 0 or n_y == 0 or header != [f"x{i + 1}" for i in range(n_x)] + [f"y{j + 1}" for j in range(n_y)] + ["task"]:
        raise ValueError(f"{path} line 1: malformed header {lines[0]!r}")
    rows_x, rows_y, task = [], [], None
    for ln_no, line in enumerate(lines[1:], start=2):
        fields = line.split(",")
        if len(fields) != n_x + n_y + 1:
            raise ValueError(f"{path} line {ln_no}: expected {n_x + n_y + 1} fields, got {len(fields)}")
        try:
            values = [float(v) for v in fields[: n_x + n_y]]
        except ValueError as exc:
            raise ValueError(f"{path} line {ln_no}: bad number: {exc}") from exc
        row_task = fields[-1]
        if task is None:
            task = row_task
        elif row_task != task:
            raise ValueError(f"{path} line {ln_no}: task {row_task!r} differs from {task!r}")
        rows_x.append(values[:n_x])
        rows_y.append(values[n_x:])
    if task is None:
        raise ValueError(f"{path}: no data rows")
    return Dataset(inputs=np.array(rows_x), targets=np.array(rows_y), task=task)
