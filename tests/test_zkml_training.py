"""Training tests: gradients, learning, quantization, prove-after-train."""

import numpy as np
import pytest

from repro.errors import ZkmlError
from repro.zkml import (
    FloatTrainer,
    MlaasService,
    QuantizedTensor,
    ReLU,
    SequentialModel,
    Linear,
    Flatten,
    synthetic_blobs,
    tiny_cnn,
    train_verifiable_model,
)
from repro.zkml.training import _softmax_xent_grad


class TestDataset:
    def test_shapes(self):
        data = synthetic_blobs(num_samples=50, image_size=4)
        assert data.x.shape == (50, 1, 4, 4)
        assert data.y.shape == (50,)
        assert data.y.max() < data.num_classes

    def test_deterministic(self):
        a = synthetic_blobs(num_samples=20, seed=3)
        b = synthetic_blobs(num_samples=20, seed=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)

    def test_normalized(self):
        data = synthetic_blobs(num_samples=30)
        assert data.x.min() >= 0.0 and data.x.max() <= 1.0

    def test_split(self):
        data = synthetic_blobs(num_samples=50)
        train, test = data.split(0.8)
        assert len(train) == 40 and len(test) == 10


class TestGradients:
    def test_softmax_xent_grad_sums_to_zero(self):
        logits = np.array([1.0, -2.0, 0.5])
        _, grad = _softmax_xent_grad(logits, 1)
        assert abs(grad.sum()) < 1e-9
        assert grad[1] < 0  # pulls the true class up

    @pytest.mark.parametrize("layer_kind", ["conv", "linear", "square", "pool"])
    def test_numeric_gradient_check(self, layer_kind):
        """Backward passes must match finite differences."""
        model = tiny_cnn(input_size=4, channels=1, classes=2)
        trainer = FloatTrainer(model, seed=1)
        data = synthetic_blobs(num_samples=1, image_size=4, num_classes=2, seed=2)
        x, y = data.x[0], int(data.y[0])

        def loss_at() -> float:
            logits = trainer.predict_logits(x)
            loss, _ = _softmax_xent_grad(logits, y)
            return loss

        # Analytic gradients.
        logits = trainer.predict_logits(x)
        _, grad = _softmax_xent_grad(logits, y)
        g = grad
        for layer in reversed(trainer.twins):
            g = layer.backward(g)
        # Numeric check on a handful of parameters of each layer type.
        eps = 1e-6
        checked = 0
        for twin in trainer.twins:
            if not hasattr(twin, "w"):
                continue
            flat = twin.w.reshape(-1)
            gflat = twin.gw.reshape(-1)
            for idx in (0, len(flat) // 2):
                original = flat[idx]
                flat[idx] = original + eps
                up = loss_at()
                flat[idx] = original - eps
                down = loss_at()
                flat[idx] = original
                numeric = (up - down) / (2 * eps)
                assert gflat[idx] == pytest.approx(numeric, rel=1e-3, abs=1e-6)
                checked += 1
            twin.gw[:] = 0
            twin.gb[:] = 0
        assert checked >= 4


class TestTraining:
    @pytest.fixture(scope="class")
    def trained(self):
        model = tiny_cnn(input_size=4, channels=1, classes=3)
        data = synthetic_blobs(
            num_samples=120, image_size=4, num_classes=3, seed=5
        )
        trainer, float_acc, quant_acc = train_verifiable_model(
            model, data, epochs=6, lr=0.03, seed=5
        )
        return model, data, trainer, float_acc, quant_acc

    def test_loss_decreases(self):
        model = tiny_cnn(input_size=4, channels=1, classes=3)
        data = synthetic_blobs(num_samples=80, image_size=4, seed=6)
        trainer = FloatTrainer(model, seed=6)
        losses = trainer.train(data, epochs=4, lr=0.03)
        assert losses[-1] < losses[0]

    def test_beats_chance(self, trained):
        _, _, _, float_acc, _ = trained
        assert float_acc > 0.7  # chance is 1/3

    def test_quantization_preserves_accuracy(self, trained):
        _, _, _, float_acc, quant_acc = trained
        assert quant_acc > float_acc - 0.15

    def test_trained_model_proves(self, trained):
        """The §5 workflow end to end: train -> quantize -> commit ->
        predict -> prove -> verify."""
        model, data, _, _, _ = trained
        service = MlaasService(model, num_col_checks=5)
        x = QuantizedTensor.from_float(data.x[0], frac_bits=4)
        resp = service.prove_prediction(x)
        assert service.verify_prediction(x, resp)

    def test_untrainable_layer_rejected(self):
        model = SequentialModel(
            [Flatten(), Linear(16, 3, name="fc"), ReLU()],
            input_shape=(1, 4, 4),
        )
        with pytest.raises(ZkmlError):
            FloatTrainer(model)

    def test_export_changes_model_weights(self, trained):
        model, _, trainer, _, _ = trained
        conv = model.layers[0]
        assert np.allclose(
            conv.weights.to_float(), trainer.twins[0].w, atol=1 / 128
        )
