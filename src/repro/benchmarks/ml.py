"""Machine Learning benchmark: a typical training pipeline (paper Section 5).

Workflow structure::

    gen (synthesise a dataset) --> parallel [ train_svm | train_forest ]

``gen`` generates ``N`` samples with ``M`` features and stores the dataset in
object storage; two classifiers are then trained concurrently: a linear
Support Vector Machine (Pegasos-style sub-gradient descent) and a Random
Forest, both implemented from scratch on numpy.  The real training runs on a
scaled-down replica of the dataset (so the simulation stays fast); the
compute cost of the paper-scale configuration (``N = 500``, ``M = 1024``) is
charged through ``ctx.compute``.  Simulated cost comes only from
``ctx.compute``, so the real training runs once per distinct
``(kind, seed)`` per process and its accuracy is memoized.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from ..core.builder import DataItem, FunctionDataSpec, ResourceAnnotation
from ..core.definition import WorkflowDefinition
from ..faas.benchmark import WorkflowBenchmark
from ..sim.invocation import FunctionSpec, InvocationContext
from ..sim.rng import named_stream

#: Size of the dataset actually materialised in memory during simulation.
_REPLICA_SAMPLES = 120
_REPLICA_FEATURES = 16

#: Abstract compute cost per (sample x feature) of the paper-scale dataset.
_GEN_WORK_PER_CELL = 1.2e-6
_SVM_WORK_PER_CELL = 5.5e-6
_FOREST_WORK_PER_CELL = 6.5e-6


def _dataset_bytes(samples: int, features: int) -> int:
    return samples * features * 8  # float64


def _make_dataset(seed: int) -> Tuple[np.ndarray, np.ndarray]:
    rng = named_stream(seed, "ml.dataset")
    features = rng.normal(size=(_REPLICA_SAMPLES, _REPLICA_FEATURES))
    true_weights = rng.normal(size=_REPLICA_FEATURES)
    labels = np.sign(features @ true_weights + 0.1 * rng.normal(size=_REPLICA_SAMPLES))
    labels[labels == 0] = 1.0
    return features, labels


# --------------------------------------------------------------------- handlers
def gen_handler(ctx: InvocationContext, payload: Dict[str, object]) -> Dict[str, object]:
    """Generate the synthetic dataset and upload it to object storage."""
    samples = int(payload.get("samples", 500))
    features = int(payload.get("features", 1024))
    seed = int(payload.get("seed", 7))

    ctx.compute(_GEN_WORK_PER_CELL * samples * features)
    dataset_key = f"ml/dataset-{ctx.invocation_id}.npy"
    ctx.upload(dataset_key, _dataset_bytes(samples, features))
    return {
        "classifiers": [
            {"kind": "svm", "dataset_key": dataset_key, "samples": samples,
             "features": features, "seed": seed},
            {"kind": "forest", "dataset_key": dataset_key, "samples": samples,
             "features": features, "seed": seed + 1},
        ]
    }


def _train_svm(features: np.ndarray, labels: np.ndarray, epochs: int = 5) -> np.ndarray:
    """Pegasos-style linear SVM training (sub-gradient descent on hinge loss)."""
    weights = np.zeros(features.shape[1])
    regularization = 0.01
    step = 0
    for _ in range(epochs):
        for x, y in zip(features, labels):
            step += 1
            learning_rate = 1.0 / (regularization * step)
            margin = y * float(x @ weights)
            if margin < 1.0:
                weights = (1 - learning_rate * regularization) * weights + learning_rate * y * x
            else:
                weights = (1 - learning_rate * regularization) * weights
    return weights


def _train_forest(
    features: np.ndarray, labels: np.ndarray, trees: int = 5, depth: int = 3, seed: int = 0
) -> List[Dict[str, object]]:
    """A small random forest of decision stumps grown on bootstrap samples."""
    rng = named_stream(seed, "ml.forest")
    forest: List[Dict[str, object]] = []
    for _ in range(trees):
        indices = rng.integers(0, len(features), size=len(features))
        sample_x, sample_y = features[indices], labels[indices]
        node = _grow_tree(sample_x, sample_y, depth, rng)
        forest.append(node)
    return forest


def _median(values: np.ndarray) -> float:
    """``np.median`` of a NaN-free vector, bit for bit, minus its ``numpy.ma`` import."""
    ordered = np.sort(values)
    half = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[half])
    return float((ordered[half - 1] + ordered[half]) / 2)


def _grow_tree(x: np.ndarray, y: np.ndarray, depth: int, rng: np.random.Generator) -> Dict[str, object]:
    # An all-equal test: ``np.unique`` would sort every node and import ``numpy.ma``.
    if depth == 0 or len(y) < 4 or (y == y[0]).all():
        return {"leaf": float(np.sign(y.sum()) or 1.0)}
    feature = int(rng.integers(0, x.shape[1]))
    threshold = _median(x[:, feature])
    left = x[:, feature] <= threshold
    if left.all() or (~left).all():
        return {"leaf": float(np.sign(y.sum()) or 1.0)}
    return {
        "feature": feature,
        "threshold": threshold,
        "left": _grow_tree(x[left], y[left], depth - 1, rng),
        "right": _grow_tree(x[~left], y[~left], depth - 1, rng),
    }


def _tree_predict(node: Dict[str, object], x: np.ndarray) -> float:
    while "leaf" not in node:
        if x[int(node["feature"])] <= float(node["threshold"]):
            node = node["left"]  # type: ignore[assignment]
        else:
            node = node["right"]  # type: ignore[assignment]
    return float(node["leaf"])


@lru_cache(maxsize=1024)
def _train_accuracy(kind: str, seed: int) -> float:
    """Training accuracy of one classifier (``svm``, else a forest) on dataset ``seed``."""
    features, labels = _make_dataset(seed)
    if kind == "svm":
        weights = _train_svm(features, labels)
        predictions = np.sign(features @ weights)
    else:
        forest = _train_forest(features, labels, seed=seed)
        predictions = np.sign(
            np.array([sum(_tree_predict(tree, row) for tree in forest) for row in features])
        )
    predictions[predictions == 0] = 1.0
    return float((predictions == labels).mean())


def train_handler(ctx: InvocationContext, task: Dict[str, object]) -> Dict[str, object]:
    """Train one classifier on the generated dataset and report its accuracy."""
    kind = str(task.get("kind", "svm"))
    samples = int(task.get("samples", 500))
    features_count = int(task.get("features", 1024))
    seed = int(task.get("seed", 7))
    dataset_key = str(task.get("dataset_key", ""))

    if dataset_key and ctx.object_exists(dataset_key):
        ctx.download(dataset_key)
    accuracy = _train_accuracy(kind, seed)
    if kind == "svm":
        ctx.compute(_SVM_WORK_PER_CELL * samples * features_count)
        model_size = features_count * 8
    else:
        ctx.compute(_FOREST_WORK_PER_CELL * samples * features_count)
        model_size = 50_000

    model_key = f"ml/model-{kind}-{ctx.invocation_id}.bin"
    ctx.upload(model_key, model_size)
    return {"kind": kind, "accuracy": accuracy, "model_key": model_key}


def build_definition() -> WorkflowDefinition:
    return WorkflowDefinition.from_dict(
        {
            "root": "gen_phase",
            "states": {
                "gen_phase": {"type": "task", "func_name": "gen", "next": "train_phase"},
                "train_phase": {
                    "type": "map",
                    "array": "classifiers",
                    "root": "train",
                    "states": {"train": {"type": "task", "func_name": "train"}},
                },
            },
        },
        name="ml",
    )


def create_benchmark(
    samples: int = 500,
    features: int = 1024,
    memory_mb: int = 1024,
) -> WorkflowBenchmark:
    """The Machine Learning training-pipeline benchmark."""
    definition = build_definition()
    dataset_size = _dataset_bytes(samples, features)
    functions = {
        "gen": FunctionSpec("gen", gen_handler, cold_init_s=0.4),
        "train": FunctionSpec("train", train_handler, cold_init_s=0.9),
    }
    data_spec = {
        "gen": FunctionDataSpec(
            reads=[DataItem("params", ResourceAnnotation.PAYLOAD, 200)],
            writes=[DataItem("dataset", ResourceAnnotation.OBJECT_STORAGE, dataset_size)],
        ),
        "train": FunctionDataSpec(
            reads=[DataItem("dataset", ResourceAnnotation.OBJECT_STORAGE, dataset_size * 2)],
            writes=[DataItem("model", ResourceAnnotation.OBJECT_STORAGE, dataset_size // 2 + 50_000)],
        ),
    }

    def make_input(index: int) -> Dict[str, object]:
        return {"samples": samples, "features": features, "seed": index + 7}

    return WorkflowBenchmark(
        name="ml",
        definition=definition,
        functions=functions,
        memory_mb=memory_mb,
        make_input=make_input,
        array_sizes={"classifiers": 2},
        data_spec=data_spec,
        description="Dataset generation followed by parallel SVM and random-forest training",
        category="application",
    )
