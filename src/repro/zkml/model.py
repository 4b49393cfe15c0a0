"""Sequential models, including the paper's VGG-16/CIFAR-10 workload.

:func:`vgg16_cifar10` builds the exact VGG-16 architecture the paper
evaluates (13 convolutions, 5 pools, 2 fully connected layers on 32×32×3
inputs) — the layer dimensions determine the verifiable-inference gate
count that drives Table 11.  :func:`tiny_cnn` is a scaled-down
circuit-friendly model whose inference is *actually proved* with the real
SNARK in the test suite and examples.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import ZkmlError
from .layers import Conv2d, Flatten, Layer, Linear, MaxPool2d, ReLU, Square
from .tensor import QuantizedTensor


class SequentialModel:
    """A feed-forward stack of layers with gate accounting."""

    def __init__(self, layers: Sequence[Layer], input_shape: Tuple[int, ...], name: str = "model"):
        self.layers = list(layers)
        self.input_shape = tuple(input_shape)
        self.name = name
        # Validate shape propagation eagerly.
        shape = self.input_shape
        self._shapes: List[Tuple[int, ...]] = [shape]
        for layer in self.layers:
            shape = layer.output_shape(shape)
            self._shapes.append(shape)

    # -- parameters ----------------------------------------------------------

    def init_params(self, seed: int = 0) -> None:
        rng = np.random.default_rng(seed)
        for layer in self.layers:
            if hasattr(layer, "init_params"):
                layer.init_params(rng)

    def parameter_count(self) -> int:
        return sum(layer.parameter_count() for layer in self.layers)

    def parameter_blocks(self) -> List[bytes]:
        """Serialize parameters into 64-byte blocks for the Merkle
        commitment of the preprocessing stage (Figure 8)."""
        raw = bytearray()
        for layer in self.layers:
            for attr in ("weights", "bias"):
                tensor = getattr(layer, attr, None)
                if isinstance(tensor, QuantizedTensor):
                    raw.extend(tensor.values.astype("<i8").tobytes())
        if not raw:
            raise ZkmlError("model has no parameters to commit")
        pad = (-len(raw)) % 64
        raw.extend(b"\x00" * pad)
        return [bytes(raw[i : i + 64]) for i in range(0, len(raw), 64)]

    # -- inference ------------------------------------------------------------

    def forward(self, x: QuantizedTensor) -> QuantizedTensor:
        if x.shape != self.input_shape:
            raise ZkmlError(
                f"{self.name}: input shape {x.shape} != {self.input_shape}"
            )
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def forward_with_trace(
        self, x: QuantizedTensor
    ) -> Tuple[QuantizedTensor, List[QuantizedTensor]]:
        """Forward pass recording every intermediate activation (the
        'intermediate results from the proving function' of §4)."""
        trace = [x]
        for layer in self.layers:
            x = layer.forward(x)
            trace.append(x)
        return x, trace

    # -- ZKP accounting ---------------------------------------------------------

    def gate_count(self) -> int:
        """Total multiplication gates of the verifiable-inference circuit."""
        return sum(
            layer.gate_count(shape)
            for layer, shape in zip(self.layers, self._shapes[:-1])
        )

    def per_layer_gates(self) -> List[Tuple[str, int]]:
        return [
            (layer.name, layer.gate_count(shape))
            for layer, shape in zip(self.layers, self._shapes[:-1])
        ]

    def __repr__(self) -> str:
        return (
            f"SequentialModel({self.name}, layers={len(self.layers)}, "
            f"gates={self.gate_count()})"
        )


def _vgg_block(in_c: int, out_c: int, convs: int) -> List[Layer]:
    layers: List[Layer] = []
    c = in_c
    for i in range(convs):
        layers.append(Conv2d(c, out_c, 3, name=f"conv{out_c}_{i}"))
        layers.append(ReLU(name=f"relu{out_c}_{i}"))
        c = out_c
    layers.append(MaxPool2d(name=f"pool{out_c}"))
    return layers


def vgg16_cifar10() -> SequentialModel:
    """VGG-16 for CIFAR-10 (the §5/§6.3 application workload).

    The standard CIFAR adaptation: five conv blocks (64-64 / 128-128 /
    256×3 / 512×3 / 512×3) and a 512→512→10 classifier head.
    """
    layers: List[Layer] = []
    layers += _vgg_block(3, 64, 2)
    layers += _vgg_block(64, 128, 2)
    layers += _vgg_block(128, 256, 3)
    layers += _vgg_block(256, 512, 3)
    layers += _vgg_block(512, 512, 3)
    layers.append(Flatten())
    layers.append(Linear(512, 512, name="fc1"))
    layers.append(ReLU(name="relu_fc1"))
    layers.append(Linear(512, 10, name="fc2"))
    return SequentialModel(layers, input_shape=(3, 32, 32), name="vgg16-cifar10")


def tiny_cnn(input_size: int = 8, channels: int = 2, classes: int = 4) -> SequentialModel:
    """A circuit-friendly model small enough to prove with the real SNARK.

    Uses the Square activation (one gate per unit) instead of ReLU so the
    whole inference compiles to a clean arithmetic circuit.
    """
    hidden = channels * input_size * input_size
    layers: List[Layer] = [
        Conv2d(1, channels, 3, name="conv1"),
        Square(name="sq1"),
        Flatten(),
        Linear(hidden, classes, name="fc1"),
    ]
    return SequentialModel(layers, input_shape=(1, input_size, input_size), name="tiny-cnn")


def random_input(
    shape: Tuple[int, ...], seed: int = 0, frac_bits: int = 8
) -> QuantizedTensor:
    """A CIFAR-10-shaped (or arbitrary) synthetic input in [0, 1)."""
    rng = np.random.default_rng(seed)
    return QuantizedTensor.from_float(rng.random(shape), frac_bits)
