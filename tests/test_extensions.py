"""Tests for the extension glue: SumPool2d circuits, fuzzing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import make_pcs, random_circuit, SnarkProver, SnarkVerifier, deserialize_proof, serialize_proof
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD
from repro.zkml import (
    Conv2d,
    Flatten,
    Linear,
    MlaasService,
    SequentialModel,
    Square,
    SumPool2d,
    circuitize,
    forward_exact,
    random_input,
)

F = DEFAULT_FIELD


class TestSumPool:
    def test_forward_sums_windows(self):
        pool = SumPool2d()
        from repro.zkml import QuantizedTensor

        x = QuantizedTensor(np.arange(16).reshape(1, 4, 4))
        y = pool.forward(x)
        assert list(y.values.reshape(-1)) == [0 + 1 + 4 + 5, 2 + 3 + 6 + 7,
                                              8 + 9 + 12 + 13, 10 + 11 + 14 + 15]

    def test_zero_gates(self):
        assert SumPool2d().gate_count((4, 8, 8)) == 0

    def test_pooled_model_circuitizes(self):
        """A conv + square + sumpool + fc model proves end to end."""
        model = SequentialModel(
            [
                Conv2d(1, 2, 3, name="c1"),
                Square(name="s1"),
                SumPool2d(name="p1"),
                Flatten(),
                Linear(2 * 2 * 2, 3, name="fc"),
            ],
            input_shape=(1, 4, 4),
            name="pooled",
        )
        model.init_params(5)
        x = random_input(model.input_shape, seed=6, frac_bits=3)
        zk = circuitize(model, x, F)
        want = [int(v) for v in forward_exact(model, x).reshape(-1)]
        assert zk.outputs == want
        assert zk.compiled.r1cs.is_satisfied(zk.compiled.witness)

        service = MlaasService(model, num_col_checks=5)
        resp = service.prove_prediction(x)
        assert service.verify_prediction(x, resp)


class TestSerializationFuzz:
    @pytest.fixture(scope="class")
    def setting(self):
        cc = random_circuit(F, 24, seed=61)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
        proof = prover.prove(cc.witness, cc.public_values)
        return cc, pcs, verifier, serialize_proof(proof, F)

    @given(data=st.binary(max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_random_blobs_never_crash(self, data):
        cc = random_circuit(F, 8, seed=62)
        pcs = make_pcs(F, cc.r1cs, num_col_checks=4)
        with pytest.raises(ProofError):
            deserialize_proof(data, F, pcs.params)

    @given(cut=st.integers(min_value=1, max_value=500))
    @settings(max_examples=20, deadline=None)
    def test_truncations_never_crash(self, setting, cut):
        cc, pcs, _, blob = setting
        truncated = blob[: max(0, len(blob) - cut)]
        with pytest.raises(ProofError):
            deserialize_proof(truncated, F, pcs.params)

    @given(pos=st.integers(min_value=8, max_value=400), delta=st.integers(1, 255))
    @settings(max_examples=30, deadline=None)
    def test_bitflips_parse_or_reject_but_never_verify(self, setting, pos, delta):
        cc, pcs, verifier, blob = setting
        mutated = bytearray(blob)
        pos = pos % len(mutated)
        if pos < 8:
            pos = 8  # keep header valid; header flips are covered above
        mutated[pos] = (mutated[pos] + delta) % 256
        if bytes(mutated) == blob:
            return
        try:
            proof = deserialize_proof(bytes(mutated), F, pcs.params)
        except ProofError:
            return
        assert not verifier.verify(proof, cc.public_values)
