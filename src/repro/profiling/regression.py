"""The paper's per-layer latency regression model.

Executing every DNN layer on every tier is "impractical and time-consuming"
(section III-D), so D3 trains a regression model that maps (computation
resources, layer configuration) to per-layer latency and uses the predictions
as the vertex weights ``T_{v_i}`` of the partitioning DAG.

We implement a ridge-regularised linear regression per layer *kind* (one model
for convolutions, one for pooling, ...), with a pooled global model as a
fallback for kinds unseen at training time.  Training data comes from the
profiler's noisy measurements of the analytic cost model on a set of
calibration networks; Fig. 4 of the paper (actual vs. predicted AlexNet layer
times) is reproduced by `repro.experiments.fig04_regression`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.dag import DnnGraph, Vertex
from repro.profiling.features import LayerFeatureExtractor
from repro.profiling.hardware import HardwareSpec


@dataclass
class TrainingSample:
    """One observation: a layer, the machine it ran on, and the measured latency."""

    graph: DnnGraph
    vertex: Vertex
    hardware: HardwareSpec
    latency_seconds: float


@dataclass
class RegressionReport:
    """Goodness-of-fit summary comparing predictions against measurements."""

    layer_names: List[str]
    actual_seconds: List[float]
    predicted_seconds: List[float]

    @property
    def mean_absolute_error(self) -> float:
        actual = np.asarray(self.actual_seconds)
        predicted = np.asarray(self.predicted_seconds)
        return float(np.mean(np.abs(actual - predicted)))

    @property
    def mean_absolute_percentage_error(self) -> float:
        actual = np.asarray(self.actual_seconds)
        predicted = np.asarray(self.predicted_seconds)
        nonzero = actual > 0
        return float(np.mean(np.abs(actual[nonzero] - predicted[nonzero]) / actual[nonzero]))

    @property
    def r_squared(self) -> float:
        actual = np.asarray(self.actual_seconds)
        predicted = np.asarray(self.predicted_seconds)
        residual = np.sum((actual - predicted) ** 2)
        total = np.sum((actual - np.mean(actual)) ** 2)
        if total == 0:
            return 1.0 if residual == 0 else 0.0
        return float(1.0 - residual / total)

    def rows(self) -> List[Tuple[str, float, float]]:
        """(layer, actual, predicted) rows, e.g. for printing Fig. 4 tables."""
        return list(zip(self.layer_names, self.actual_seconds, self.predicted_seconds))


class _RidgeModel:
    """Minimal ridge regression solved in closed form with numpy.

    Features are scaled to unit maximum column magnitude before solving so the
    regularised normal equations stay well conditioned even though raw features
    span many orders of magnitude (FLOPs ~1e9 next to binary indicators), and
    the pseudo-inverse handles rank-deficient kinds (few samples, collinear
    features) gracefully.
    """

    def __init__(self, alpha: float) -> None:
        self.alpha = alpha
        self.weights: Optional[np.ndarray] = None
        self.scale: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray, targets: np.ndarray) -> None:
        scale = np.max(np.abs(features), axis=0)
        scale[scale == 0] = 1.0
        scaled = features / scale
        n_features = scaled.shape[1]
        gram = scaled.T @ scaled + self.alpha * np.eye(n_features)
        self.weights = np.linalg.pinv(gram) @ (scaled.T @ targets)
        self.scale = scale

    def predict(self, features: np.ndarray) -> np.ndarray:
        if self.weights is None or self.scale is None:
            raise RuntimeError("model is not fitted")
        return (features / self.scale) @ self.weights


class LatencyRegressionModel:
    """Per-layer latency estimator (the ``T_{v_i}`` oracle of HPA).

    Parameters
    ----------
    alpha:
        Ridge regularisation strength.
    per_kind:
        Fit one model per layer kind (the default, matching the paper's
        observation that different layer types have very different latency
        profiles) or a single pooled model.
    """

    def __init__(self, alpha: float = 1e-6, per_kind: bool = True) -> None:
        self.alpha = alpha
        self.per_kind = per_kind
        self._extractor = LayerFeatureExtractor()
        self._kind_models: Dict[str, _RidgeModel] = {}
        self._global_model = _RidgeModel(alpha)
        self._fitted = False

    # ------------------------------------------------------------------ #
    def fit(self, samples: Sequence[TrainingSample]) -> "LatencyRegressionModel":
        """Fit the estimator on profiler measurements."""
        if not samples:
            raise ValueError("cannot fit a regression model on zero samples")
        features = np.vstack(
            [self._extractor.extract(s.graph, s.vertex, s.hardware) for s in samples]
        )
        targets = np.array([s.latency_seconds for s in samples], dtype=np.float64)
        self._global_model.fit(features, targets)

        if self.per_kind:
            by_kind: Dict[str, List[int]] = {}
            for i, sample in enumerate(samples):
                by_kind.setdefault(sample.vertex.kind, []).append(i)
            for kind, indices in by_kind.items():
                # A kind needs at least as many samples as features to be
                # worth a dedicated model; otherwise the global model is used.
                if len(indices) >= 3:
                    model = _RidgeModel(self.alpha)
                    model.fit(features[indices], targets[indices])
                    self._kind_models[kind] = model
        self._fitted = True
        return self

    # ------------------------------------------------------------------ #
    def predict_layer(self, graph: DnnGraph, vertex: Vertex, hardware: HardwareSpec) -> float:
        """Predicted latency in seconds of one layer on one machine."""
        if not self._fitted:
            raise RuntimeError("regression model must be fitted before predicting")
        features = self._extractor.extract(graph, vertex, hardware)[None, :]
        model = self._kind_models.get(vertex.kind, self._global_model)
        prediction = float(model.predict(features)[0])
        # Latencies are physically non-negative; clamp tiny negative predictions
        # caused by extrapolation.
        return max(prediction, 0.0)

    def predict_graph(self, graph: DnnGraph, hardware: HardwareSpec) -> Dict[int, float]:
        """Predicted latency of every vertex of ``graph`` on ``hardware``."""
        return {v.index: self.predict_layer(graph, v, hardware) for v in graph}

    def report(
        self,
        graph: DnnGraph,
        hardware: HardwareSpec,
        actual: Dict[int, float],
        kinds: Optional[Sequence[str]] = None,
    ) -> RegressionReport:
        """Compare predictions against measured latencies for one graph."""
        names, actual_list, predicted_list = [], [], []
        for vertex in graph:
            if kinds is not None and vertex.kind not in kinds:
                continue
            if vertex.index not in actual:
                continue
            names.append(vertex.name)
            actual_list.append(actual[vertex.index])
            predicted_list.append(self.predict_layer(graph, vertex, hardware))
        return RegressionReport(names, actual_list, predicted_list)
