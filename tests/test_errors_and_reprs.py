"""Error-hierarchy and repr/diagnostics coverage."""

import pytest

from repro import errors
from repro.field import DEFAULT_FIELD, MultilinearPolynomial, Polynomial, PrimeField
from repro.encoder import SpielmanEncoder, SparseMatrix
from repro.gpu import GPU_CATALOG, KernelStage, ModuleGraph
from repro.merkle import MerkleTree
from repro.zkml import tiny_cnn

F = DEFAULT_FIELD


class TestErrorHierarchy:
    ALL_ERRORS = [
        errors.FieldError,
        errors.FieldMismatchError,
        errors.NonInvertibleError,
        errors.HashError,
        errors.MerkleError,
        errors.SumcheckError,
        errors.EncodingError,
        errors.CommitmentError,
        errors.CircuitError,
        errors.ProofError,
        errors.SimulationError,
        errors.PipelineError,
        errors.ZkmlError,
    ]

    @pytest.mark.parametrize("exc", ALL_ERRORS)
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, errors.ReproError)

    def test_catch_all_with_base(self):
        with pytest.raises(errors.ReproError):
            raise errors.SumcheckError("boom")

    def test_subsystem_discrimination(self):
        """Field errors are not hash errors — a caller can discriminate."""
        assert not issubclass(errors.FieldError, errors.HashError)
        assert issubclass(errors.NonInvertibleError, errors.FieldError)
        assert issubclass(errors.FieldMismatchError, errors.FieldError)

    def test_mismatch_message_names_both_fields(self):
        exc = errors.FieldMismatchError(PrimeField(97), PrimeField(101))
        assert "97" in str(exc) and "101" in str(exc)


class TestReprs:
    """reprs are part of the debugging surface; keep them informative."""

    def test_field_and_element(self):
        assert "97" in repr(PrimeField(97))
        assert repr(F(5)).startswith("5:")

    def test_polynomial(self):
        text = repr(Polynomial(F, [1, 0, 3]))
        assert "x^2" in text

    def test_multilinear(self, rng):
        ml = MultilinearPolynomial.random(F, 4, rng)
        assert "n=4" in repr(ml)

    def test_sparse_matrix(self, rng):
        m = SparseMatrix.random_expander(F, 4, 8, 2, rng)
        assert "4x8" in repr(m)
        assert "nnz=8" in repr(m)

    def test_encoder(self):
        enc = SpielmanEncoder(F, 100, seed=0)
        text = repr(enc)
        assert "n=100" in text and "stages=" in text

    def test_merkle_tree(self):
        tree = MerkleTree.from_blocks([b"\x00" * 64] * 4)
        text = repr(tree)
        assert "leaves=4" in text and "depth=2" in text

    def test_sequential_model(self):
        model = tiny_cnn()
        text = repr(model)
        assert "tiny-cnn" in text and "gates=" in text

    def test_kernel_graph(self):
        g = ModuleGraph("m", [KernelStage("s", 4, 1.0)])
        assert len(g) == 1

    def test_gpu_catalog_names_match_keys(self):
        for name, spec in GPU_CATALOG.items():
            assert spec.name == name
