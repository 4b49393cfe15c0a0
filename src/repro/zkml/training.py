"""Training for the verifiable-ML models (float reference + quantization).

The paper trains its own VGG-16 ("can achieve an accuracy of 93.93%…
outperforming the models utilized in all other ZKP implementations",
§6.3).  We cannot retrain VGG-16 (no CIFAR-10 download, no GPU), but the
*workflow* — train in float, quantize into the verifiable model, measure
the accuracy the service commits to — is fully reproduced at small scale:

* :func:`synthetic_blobs` — a deterministic Gaussian-blob classification
  dataset (stands in for CIFAR-10's role; see DESIGN.md substitutions).
* :class:`FloatTrainer` — plain-numpy SGD on a float twin of a
  :class:`~repro.zkml.model.SequentialModel` (conv/square/sumpool/fc).
* :meth:`FloatTrainer.export_weights` — pushes trained float weights into
  the quantized model, after which the MLaaS service commits and proves
  as usual.

The gradient math is hand-derived for exactly the layer set the circuit
path supports; tests assert training lifts accuracy far above chance and
that the quantized model preserves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ZkmlError
from .layers import Conv2d, Flatten, Linear, Square, SumPool2d
from .model import SequentialModel
from .tensor import QuantizedTensor


@dataclass
class Dataset:
    """A labelled image dataset: x (N, C, H, W) float64, y (N,) int."""

    x: np.ndarray
    y: np.ndarray
    num_classes: int

    def __len__(self) -> int:
        return len(self.y)

    def split(self, train_fraction: float = 0.8) -> Tuple["Dataset", "Dataset"]:
        cut = int(len(self) * train_fraction)
        return (
            Dataset(self.x[:cut], self.y[:cut], self.num_classes),
            Dataset(self.x[cut:], self.y[cut:], self.num_classes),
        )


def synthetic_blobs(
    num_samples: int = 200,
    image_size: int = 4,
    channels: int = 1,
    num_classes: int = 3,
    seed: int = 0,
    noise: float = 0.35,
) -> Dataset:
    """Gaussian-blob classes: each class is a fixed random template plus
    noise — linearly-ish separable, so tiny models can learn it."""
    rng = np.random.default_rng(seed)
    templates = rng.normal(0, 1, (num_classes, channels, image_size, image_size))
    ys = rng.integers(0, num_classes, num_samples)
    xs = templates[ys] + rng.normal(0, noise, (num_samples, channels, image_size, image_size))
    # Normalize into [0, 1) so quantization behaves like image data.
    xs = (xs - xs.min()) / (xs.max() - xs.min() + 1e-9)
    return Dataset(x=xs, y=ys, num_classes=num_classes)


class _FloatLayer:
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def step(self, lr: float) -> None:
        pass


class _FloatConv(_FloatLayer):
    def __init__(self, layer: Conv2d, rng: np.random.Generator):
        k = layer.kernel_size
        fan_in = layer.in_channels * k * k
        self.spec = layer
        self.w = rng.normal(0, (2.0 / fan_in) ** 0.5, (layer.out_channels, layer.in_channels, k, k))
        self.b = np.zeros(layer.out_channels)
        self._x: Optional[np.ndarray] = None
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        c, h, w = x.shape
        k = self.spec.kernel_size
        pad = k // 2
        padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        out = np.zeros((self.spec.out_channels, h, w))
        for oc in range(self.spec.out_channels):
            for ic in range(c):
                for di in range(k):
                    for dj in range(k):
                        out[oc] += self.w[oc, ic, di, dj] * padded[ic, di : di + h, dj : dj + w]
            out[oc] += self.b[oc]
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x = self._x
        c, h, w = x.shape
        k = self.spec.kernel_size
        pad = k // 2
        padded = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
        gpad = np.zeros_like(padded)
        for oc in range(self.spec.out_channels):
            self.gb[oc] += grad[oc].sum()
            for ic in range(c):
                for di in range(k):
                    for dj in range(k):
                        self.gw[oc, ic, di, dj] += (
                            grad[oc] * padded[ic, di : di + h, dj : dj + w]
                        ).sum()
                        gpad[ic, di : di + h, dj : dj + w] += (
                            self.w[oc, ic, di, dj] * grad[oc]
                        )
        return gpad[:, pad : pad + h, pad : pad + w]

    def step(self, lr: float) -> None:
        self.w -= lr * self.gw
        self.b -= lr * self.gb
        self.gw[:] = 0
        self.gb[:] = 0


class _FloatLinear(_FloatLayer):
    def __init__(self, layer: Linear, rng: np.random.Generator):
        self.spec = layer
        self.w = rng.normal(0, (2.0 / layer.in_features) ** 0.5, (layer.out_features, layer.in_features))
        self.b = np.zeros(layer.out_features)
        self._x: Optional[np.ndarray] = None
        self.gw = np.zeros_like(self.w)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x.reshape(-1)
        return self.w @ self._x + self.b

    def backward(self, grad: np.ndarray) -> np.ndarray:
        self.gw += np.outer(grad, self._x)
        self.gb += grad
        return self.w.T @ grad

    def step(self, lr: float) -> None:
        self.w -= lr * self.gw
        self.b -= lr * self.gb
        self.gw[:] = 0
        self.gb[:] = 0


class _FloatSquare(_FloatLayer):
    def __init__(self) -> None:
        self._x: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x * x

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return 2.0 * self._x * grad


class _FloatSumPool(_FloatLayer):
    def __init__(self, layer: SumPool2d):
        self.stride = layer.stride
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        c, h, w = x.shape
        s = self.stride
        return x[:, : h - h % s, : w - w % s].reshape(
            c, h // s, s, w // s, s
        ).sum(axis=(2, 4))

    def backward(self, grad: np.ndarray) -> np.ndarray:
        c, h, w = self._shape
        s = self.stride
        out = np.zeros(self._shape)
        expanded = np.repeat(np.repeat(grad, s, axis=1), s, axis=2)
        out[:, : expanded.shape[1], : expanded.shape[2]] = expanded
        return out


class _FloatFlatten(_FloatLayer):
    def __init__(self) -> None:
        self._shape: Optional[Tuple[int, ...]] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(-1)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        return grad.reshape(self._shape)


def _float_twin(model: SequentialModel, rng: np.random.Generator) -> List[_FloatLayer]:
    twins: List[_FloatLayer] = []
    for layer in model.layers:
        if isinstance(layer, Conv2d):
            twins.append(_FloatConv(layer, rng))
        elif isinstance(layer, Linear):
            twins.append(_FloatLinear(layer, rng))
        elif isinstance(layer, Square):
            twins.append(_FloatSquare())
        elif isinstance(layer, SumPool2d):
            twins.append(_FloatSumPool(layer))
        elif isinstance(layer, Flatten):
            twins.append(_FloatFlatten())
        else:
            raise ZkmlError(
                f"no float twin for layer {layer.name!r} "
                f"({type(layer).__name__}); trainable models use "
                f"Conv2d/Linear/Square/SumPool2d/Flatten"
            )
    return twins


def _softmax_xent_grad(logits: np.ndarray, label: int) -> Tuple[float, np.ndarray]:
    shifted = logits - logits.max()
    exps = np.exp(shifted)
    probs = exps / exps.sum()
    loss = -float(np.log(probs[label] + 1e-12))
    grad = probs.copy()
    grad[label] -= 1.0
    return loss, grad


class FloatTrainer:
    """SGD on the float twin of a circuit-friendly model."""

    def __init__(self, model: SequentialModel, seed: int = 0):
        self.model = model
        self.twins = _float_twin(model, np.random.default_rng(seed))

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        out = x
        for layer in self.twins:
            out = layer.forward(out)
        return out

    def accuracy(self, data: Dataset) -> float:
        hits = sum(
            int(np.argmax(self.predict_logits(x)) == y)
            for x, y in zip(data.x, data.y)
        )
        return hits / len(data)

    def train(
        self, data: Dataset, epochs: int = 5, lr: float = 0.05
    ) -> List[float]:
        """Run SGD; returns the per-epoch mean loss trajectory."""
        losses: List[float] = []
        order = np.arange(len(data))
        rng = np.random.default_rng(1234)
        for _ in range(epochs):
            rng.shuffle(order)
            total = 0.0
            for idx in order:
                logits = self.predict_logits(data.x[idx])
                loss, grad = _softmax_xent_grad(logits, int(data.y[idx]))
                total += loss
                for layer in reversed(self.twins):
                    grad = layer.backward(grad)
                for layer in self.twins:
                    layer.step(lr)
            losses.append(total / len(data))
        return losses

    def export_weights(self) -> None:
        """Quantize trained weights back into the verifiable model."""
        for twin, layer in zip(self.twins, self.model.layers):
            if isinstance(twin, (_FloatConv, _FloatLinear)):
                layer.weights = QuantizedTensor.from_float(twin.w)
                layer.bias = QuantizedTensor.from_float(twin.b)


def quantized_accuracy(model: SequentialModel, data: Dataset, frac_bits: int = 8) -> float:
    """Accuracy of the quantized (provable) model on ``data``."""
    hits = 0
    for x, y in zip(data.x, data.y):
        q = QuantizedTensor.from_float(x, frac_bits)
        logits = model.forward(q).values
        hits += int(np.argmax(logits) == y)
    return hits / len(data)


def train_verifiable_model(
    model: SequentialModel,
    data: Dataset,
    epochs: int = 5,
    lr: float = 0.05,
    seed: int = 0,
) -> Tuple[FloatTrainer, float, float]:
    """End-to-end: train float, export quantized, report both accuracies."""
    trainer = FloatTrainer(model, seed=seed)
    trainer.train(data, epochs=epochs, lr=lr)
    float_acc = trainer.accuracy(data)
    trainer.export_weights()
    quant_acc = quantized_accuracy(model, data)
    return trainer, float_acc, quant_acc
