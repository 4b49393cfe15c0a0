"""Verifiable machine learning application (system S11 in DESIGN.md; §5).

* Quantized tensors and NN layers with ZKP gate accounting.
* :func:`vgg16_cifar10` — the paper's Table 11 workload.
* :func:`circuitize` — real R1CS compilation for circuit-scale models.
* :class:`MlaasService` — the Figure 8 service: commit, predict, prove,
  verify.
"""

from .circuitize import ZkmlCircuit, circuitize, forward_exact
from .layers import (
    Conv2d,
    Flatten,
    Layer,
    Linear,
    MaxPool2d,
    RESCALE_BITS,
    ReLU,
    Square,
    SumPool2d,
)
from .model import (
    SequentialModel,
    random_input,
    tiny_cnn,
    vgg16_cifar10,
)
from .service import (
    MlaasService,
    PredictionResponse,
    VGG_STAGE_CAPS,
    simulate_vgg16_service,
)
from .tensor import DEFAULT_FRAC_BITS, QuantizedTensor
from .training import (
    Dataset,
    FloatTrainer,
    quantized_accuracy,
    synthetic_blobs,
    train_verifiable_model,
)

__all__ = [
    "QuantizedTensor",
    "DEFAULT_FRAC_BITS",
    "Layer",
    "Conv2d",
    "Linear",
    "ReLU",
    "Square",
    "SumPool2d",
    "MaxPool2d",
    "Flatten",
    "RESCALE_BITS",
    "SequentialModel",
    "vgg16_cifar10",
    "tiny_cnn",
    "random_input",
    "circuitize",
    "forward_exact",
    "ZkmlCircuit",
    "Dataset",
    "FloatTrainer",
    "synthetic_blobs",
    "train_verifiable_model",
    "quantized_accuracy",
    "MlaasService",
    "PredictionResponse",
    "simulate_vgg16_service",
    "VGG_STAGE_CAPS",
]
