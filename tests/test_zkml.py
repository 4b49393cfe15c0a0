"""Verifiable-ML tests: tensors, layers, models, circuits, service."""

import numpy as np
import pytest

from repro.errors import ZkmlError
from repro.field import DEFAULT_FIELD
from repro.zkml import (
    Conv2d,
    Flatten,
    Linear,
    MaxPool2d,
    MlaasService,
    QuantizedTensor,
    RESCALE_BITS,
    ReLU,
    SequentialModel,
    Square,
    circuitize,
    forward_exact,
    random_input,
    simulate_vgg16_service,
    tiny_cnn,
    vgg16_cifar10,
)

F = DEFAULT_FIELD


class TestQuantizedTensor:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (4, 4))
        q = QuantizedTensor.from_float(x, frac_bits=8)
        assert np.max(np.abs(q.to_float() - x)) <= 1 / 512 + 1e-12

    def test_to_field_handles_negatives(self):
        q = QuantizedTensor(np.array([-1, 2, -3]), frac_bits=0)
        vals = q.to_field(F)
        assert vals == [F.modulus - 1, 2, F.modulus - 3]

    def test_rescale_truncates_toward_zero(self):
        q = QuantizedTensor(np.array([255, -255, 256, -256]), frac_bits=8)
        assert list(q.rescale().values) == [0, 0, 1, -1]

    def test_from_float_scale(self):
        q = QuantizedTensor.from_float(np.array([1.5]), frac_bits=4)
        assert q.values[0] == 24

    def test_zeros(self):
        q = QuantizedTensor.zeros((2, 3))
        assert q.shape == (2, 3) and q.size == 6

    def test_negative_frac_bits(self):
        with pytest.raises(ZkmlError):
            QuantizedTensor(np.array([1]), frac_bits=-1)


class TestLayers:
    def test_conv_shape_and_determinism(self):
        conv = Conv2d(2, 3, 3)
        conv.init_params(np.random.default_rng(0))
        x = random_input((2, 5, 5), seed=1)
        y1 = conv.forward(x)
        y2 = conv.forward(x)
        assert y1.shape == (3, 5, 5)
        assert np.array_equal(y1.values, y2.values)

    def test_conv_channel_mismatch(self):
        conv = Conv2d(2, 3)
        with pytest.raises(ZkmlError):
            conv.output_shape((5, 4, 4))

    def test_conv_identity_kernel(self):
        """A centered delta kernel reproduces the input channel."""
        conv = Conv2d(1, 1, 3)
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = 1.0
        conv.weights = QuantizedTensor.from_float(w)
        conv.bias = QuantizedTensor.from_float(np.zeros(1))
        x = random_input((1, 4, 4), seed=2)
        y = conv.forward(x)
        assert np.array_equal(y.values, x.values.reshape(1, 4, 4))

    def test_linear_matches_numpy(self):
        fc = Linear(4, 2)
        fc.init_params(np.random.default_rng(1))
        x = QuantizedTensor(np.array([1, 2, 3, 4]) << 8, frac_bits=8)
        y = fc.forward(x)
        want = fc.weights.values @ x.values
        want = np.where(want >= 0, want >> 8, -((-want) >> 8))
        assert np.array_equal(y.values, want)

    def test_relu(self):
        r = ReLU()
        x = QuantizedTensor(np.array([-5, 0, 7]))
        assert list(r.forward(x).values) == [0, 0, 7]

    def test_square_rescales(self):
        s = Square()
        x = QuantizedTensor(np.array([1 << 8]), frac_bits=8)  # value 1.0
        y = s.forward(x)
        assert y.values[0] == 1 << 8  # 1.0^2 == 1.0

    def test_maxpool(self):
        mp = MaxPool2d()
        x = QuantizedTensor(np.arange(16).reshape(1, 4, 4))
        y = mp.forward(x)
        assert y.shape == (1, 2, 2)
        assert list(y.values.reshape(-1)) == [5, 7, 13, 15]

    def test_flatten(self):
        f = Flatten()
        x = QuantizedTensor(np.arange(12).reshape(3, 2, 2))
        assert f.forward(x).shape == (12,)
        assert f.gate_count((3, 2, 2)) == 0

    def test_gate_counts_positive_and_structured(self):
        conv = Conv2d(3, 64)
        g = conv.gate_count((3, 32, 32))
        # rescale term dominates: out volume * RESCALE_BITS
        assert g > 64 * 32 * 32 * RESCALE_BITS
        assert ReLU().gate_count((64, 32, 32)) == 64 * 32 * 32 * RESCALE_BITS


class TestModels:
    def test_vgg16_structure(self):
        m = vgg16_cifar10()
        # 13 convs + 13 relus + 5 pools + flatten + 2 fc + 1 relu = 35
        assert len(m.layers) == 35
        assert m.input_shape == (3, 32, 32)
        assert m._shapes[-1] == (10,)

    def test_vgg16_parameter_count(self):
        """≈15M parameters, the standard VGG-16/CIFAR figure."""
        m = vgg16_cifar10()
        assert 14_500_000 < m.parameter_count() < 15_500_000

    def test_vgg16_gate_count_scale(self):
        """Gate count must land in the ~20M range that reproduces the
        paper's 9.52 proofs/s on GH200."""
        gates = vgg16_cifar10().gate_count()
        assert 15_000_000 < gates < 30_000_000

    def test_per_layer_gates_sum(self):
        m = vgg16_cifar10()
        assert sum(g for _, g in m.per_layer_gates()) == m.gate_count()

    def test_tiny_forward_runs(self):
        m = tiny_cnn()
        m.init_params(0)
        y = m.forward(random_input(m.input_shape, seed=1))
        assert y.shape == (4,)

    def test_forward_with_trace(self):
        m = tiny_cnn()
        m.init_params(0)
        out, trace = m.forward_with_trace(random_input(m.input_shape, seed=1))
        assert len(trace) == len(m.layers) + 1
        assert np.array_equal(trace[-1].values, out.values)

    def test_wrong_input_shape(self):
        m = tiny_cnn()
        m.init_params(0)
        with pytest.raises(ZkmlError):
            m.forward(random_input((2, 8, 8)))

    def test_parameter_blocks_64_bytes(self):
        m = tiny_cnn()
        m.init_params(0)
        blocks = m.parameter_blocks()
        assert all(len(b) == 64 for b in blocks)

    def test_parameter_blocks_change_with_params(self):
        a = tiny_cnn()
        a.init_params(0)
        b = tiny_cnn()
        b.init_params(1)
        assert a.parameter_blocks() != b.parameter_blocks()


class TestCircuitize:
    @pytest.fixture(scope="class")
    def tiny(self):
        m = tiny_cnn(input_size=4, channels=1, classes=3)
        m.init_params(7)
        return m

    def test_circuit_outputs_match_exact_forward(self, tiny):
        x = random_input(tiny.input_shape, seed=3, frac_bits=4)
        zk = circuitize(tiny, x, F)
        want = [int(v) for v in forward_exact(tiny, x).reshape(-1)]
        assert zk.outputs == want

    def test_circuit_satisfiable(self, tiny):
        x = random_input(tiny.input_shape, seed=4, frac_bits=4)
        zk = circuitize(tiny, x, F)
        assert zk.compiled.r1cs.is_satisfied(zk.compiled.witness)

    def test_gate_count_is_mac_level(self, tiny):
        """circuitize builds a MAC-per-gate circuit (unlike the model's
        zkCNN-style protocol estimate): conv MACs + squares + fc MACs."""
        x = random_input(tiny.input_shape, seed=3, frac_bits=4)
        zk = circuitize(tiny, x, F)
        n = tiny.input_shape[-1]
        fc = tiny.layers[-1]
        # Upper bound: all conv taps + one square per activation + fc MACs.
        upper = n * n * 9 + n * n + fc.in_features * fc.out_features
        assert 0 < zk.gate_count <= upper
        assert zk.compiled.r1cs.num_constraints >= zk.gate_count

    def test_different_inputs_different_outputs(self, tiny):
        x1 = random_input(tiny.input_shape, seed=5, frac_bits=4)
        x2 = random_input(tiny.input_shape, seed=6, frac_bits=4)
        z1 = circuitize(tiny, x1, F)
        z2 = circuitize(tiny, x2, F)
        assert z1.outputs != z2.outputs

    def test_relu_model_circuitizes_via_gadget(self):
        """ReLU compiles for real now (bit-decomposition gadget)."""
        m = SequentialModel(
            [Linear(4, 2, name="fc"), ReLU()], input_shape=(4,), name="relu-model"
        )
        m.init_params(0)
        x = QuantizedTensor(np.array([3, -2, 5, -7]), frac_bits=0)
        zk = circuitize(m, x, F, relu_bits=20)
        want = [int(v) for v in forward_exact(m, x).reshape(-1)]
        assert zk.outputs == want
        assert all(v >= 0 for v in zk.outputs)
        assert zk.compiled.r1cs.is_satisfied(zk.compiled.witness)

    def test_maxpool_model_rejected(self):
        from repro.zkml import MaxPool2d

        m = SequentialModel(
            [MaxPool2d(), Flatten(), Linear(4, 2, name="fc")],
            input_shape=(1, 4, 4),
            name="bad",
        )
        m.init_params(0)
        with pytest.raises(ZkmlError):
            circuitize(m, QuantizedTensor(np.zeros((1, 4, 4), dtype=np.int64)), F)


class TestMlaasService:
    @pytest.fixture(scope="class")
    def service(self):
        m = tiny_cnn(input_size=4, channels=1, classes=3)
        m.init_params(7)
        return MlaasService(m, num_col_checks=6)

    def test_model_root_stable(self, service):
        assert service.model_root == service.model_root
        assert len(service.model_root) == 32

    def test_prove_and_verify(self, service):
        x = random_input(service.model.input_shape, seed=8, frac_bits=4)
        resp = service.prove_prediction(x)
        assert service.verify_prediction(x, resp)

    def test_prediction_matches_engine(self, service):
        x = random_input(service.model.input_shape, seed=8, frac_bits=4)
        resp = service.prove_prediction(x)
        want = [int(v) for v in forward_exact(service.model, x).reshape(-1)]
        assert resp.prediction == want

    def test_wrong_prediction_rejected(self, service):
        import dataclasses

        x = random_input(service.model.input_shape, seed=9, frac_bits=4)
        resp = service.prove_prediction(x)
        bad = dataclasses.replace(resp, prediction=[v + 1 for v in resp.prediction])
        assert not service.verify_prediction(x, bad)

    def test_prove_predictions_batch_verifies(self, service):
        """Batched request streams ride the S22 parallel runtime."""
        xs = [
            random_input(service.model.input_shape, seed=s, frac_bits=4)
            for s in (21, 22, 23)
        ]
        resps = service.prove_predictions(xs, backend="pool:2")
        assert len(resps) == 3
        assert all(
            service.verify_prediction(x, r) for x, r in zip(xs, resps)
        )
        assert service.last_runtime_stats.proofs_generated == 3

    def test_string_selector_resolved_once(self, service, monkeypatch):
        """A repeated string selector reuses its backend, so stateful
        backends (node connections, pools) are not rebuilt per batch."""
        from repro.execution import registry

        resolved = []
        real = registry.resolve_backend

        def spy(selector):
            backend = real(selector)
            resolved.append(backend)
            return backend

        monkeypatch.setattr(registry, "resolve_backend", spy)
        for seed in (25, 26):
            x = random_input(service.model.input_shape, seed=seed, frac_bits=4)
            service.prove_predictions([x], backend="lanes:2")
        assert len(resolved) == 1
        assert service._backends["lanes:2"] is resolved[0]

    def test_prove_predictions_empty(self, service):
        assert service.prove_predictions([]) == []

    def test_empty_batch_resets_stale_runtime_stats(self, service):
        """Regression: an empty call must not leave a previous batch's
        stats in place masquerading as this call's report."""
        x = random_input(service.model.input_shape, seed=31, frac_bits=4)
        service.prove_predictions([x])
        assert service.last_runtime_stats is not None
        assert service.prove_predictions([]) == []
        assert service.last_runtime_stats is None

    def test_nonuniform_fallback_resets_stale_runtime_stats(
        self, service, monkeypatch
    ):
        """Regression: the serial fallback never touches the runtime, so
        it must clear, not inherit, the previous batch's stats."""
        from repro.core.r1cs import R1CS

        xs = [
            random_input(service.model.input_shape, seed=s, frac_bits=4)
            for s in (32, 33)
        ]
        service.prove_predictions([xs[0]])
        assert service.last_runtime_stats is not None
        # Per-object digests make every compile look structurally distinct,
        # forcing the non-uniform serial path.  (Digests are transcript-
        # bound, so proofs from this patched run are not verified here.)
        monkeypatch.setattr(
            R1CS,
            "digest",
            lambda self, hasher=None: id(self).to_bytes(16, "little"),
        )
        responses = service.prove_predictions(xs)
        assert len(responses) == 2
        assert all(r.proof is not None for r in responses)
        assert service.last_runtime_stats is None

    def test_serve_streams_predictions_through_proof_service(self, service):
        """The streaming front door: uniform batches, cache reuse, and
        customer-verifiable responses."""
        from repro.service import BatchPolicy, Priority

        xs = [
            random_input(service.model.input_shape, seed=s, frac_bits=4)
            for s in (41, 42)
        ]
        policy = BatchPolicy(max_batch_size=4)
        with service.serve(policy=policy) as front:
            tickets = [
                front.submit(
                    x, priority=Priority.INTERACTIVE, deadline_seconds=300.0
                )
                for x in xs
            ]
            duplicate = front.submit(xs[0])
            responses = [t.result(timeout=300) for t in tickets]
            assert duplicate.result(timeout=300).prediction == \
                responses[0].prediction
        assert duplicate.source in ("cache", "coalesced")
        assert all(
            service.verify_prediction(x, r) for x, r in zip(xs, responses)
        )
        assert front.stats.completed == 3
        assert sum(front.stats.batch_size_histogram.values()) >= 1
        # The uniform batch rode the shared-spec runtime fast path.
        assert service.last_runtime_stats is not None

    def test_prove_predictions_matches_single(self, service):
        x = random_input(service.model.input_shape, seed=24, frac_bits=4)
        (batched,) = service.prove_predictions([x], backend="serial")
        single = service.prove_prediction(x)
        assert batched.prediction == single.prediction
        assert service.verify_prediction(x, batched)

    def test_model_substitution_detected(self, service):
        """Figure 8's security claim: a different model has a different
        Merkle root, so its responses are rejected."""
        other_model = tiny_cnn(input_size=4, channels=1, classes=3)
        other_model.init_params(99)
        other = MlaasService(other_model, num_col_checks=6)
        x = random_input(service.model.input_shape, seed=10, frac_bits=4)
        resp = other.prove_prediction(x)
        assert resp.model_root != service.model_root
        assert not service.verify_prediction(x, resp)

    def test_missing_proof_rejected(self, service):
        import dataclasses

        x = random_input(service.model.input_shape, seed=11, frac_bits=4)
        resp = service.prove_prediction(x)
        assert not service.verify_prediction(
            x, dataclasses.replace(resp, proof=None)
        )


class TestVgg16Simulation:
    def test_table11_shape(self):
        """Ours: ~an order of magnitude of 9.52 proofs/s, sub-second
        amortized generation, >400x over ZENO."""
        from repro.baselines import ZKML_BASELINES

        res = simulate_vgg16_service(vgg16_cifar10(), device="GH200")
        thpt = res.sim.steady_throughput_per_second
        assert 5.0 < thpt < 20.0
        assert 1.0 / thpt < 1.0  # sub-second amortized proof generation
        assert thpt / ZKML_BASELINES["ZENO"].throughput_per_second > 200
        # Latency >> amortized (deep pipeline), in the paper's ballpark.
        assert 3.0 < res.latency_seconds < 40.0

    def test_small_model_rejected(self):
        m = tiny_cnn()
        m.init_params(0)
        with pytest.raises(ZkmlError):
            simulate_vgg16_service(m)
