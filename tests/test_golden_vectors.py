"""Golden proof vectors: committed proof bytes pin the proof format.

``tests/vectors/`` holds serialized proofs of ``random_circuit`` at three
sizes × two seeds and a ``manifest.json`` of their SHA-256 digests
(``python tests/vectors/regenerate.py`` rewrites them).  Every vector must
verify, a re-prove must reproduce it byte for byte, and the same bytes
under any other format version must fail typed.
"""

import hashlib
import json
import struct

import pytest

from repro.core.serialize import (
    MAGIC,
    VERSION,
    deserialize_proof,
    deserialize_proof_bundle,
)
from repro.errors import ProofError
from repro.field import DEFAULT_FIELD as F
from tests.vectors import regenerate

MANIFEST = json.loads((regenerate.HERE / "manifest.json").read_text())
VECTORS = MANIFEST["vectors"]
IDS = [v["file"] for v in VECTORS]


def _blob(vector) -> bytes:
    return (regenerate.HERE / vector["file"]).read_bytes()


def test_manifest_covers_every_circuit_at_this_version():
    assert MANIFEST["version"] == VERSION
    assert MANIFEST["num_col_checks"] == regenerate.NUM_COL_CHECKS
    assert [(v["gates"], v["seed"]) for v in VECTORS] == [
        (g, s) for g in regenerate.GATES for s in regenerate.SEEDS
    ]


@pytest.mark.parametrize("vector", VECTORS, ids=IDS)
def test_vector_matches_manifest_and_verifies(vector):
    blob = _blob(vector)
    assert len(blob) == vector["bytes"]
    assert hashlib.sha256(blob).hexdigest() == vector["sha256"]
    cc, _, verifier = regenerate.setup(vector["gates"], vector["seed"])
    proof = deserialize_proof(blob, F, verifier.pcs.params)
    assert verifier.verify(proof, cc.public_values)


@pytest.mark.parametrize("vector", VECTORS, ids=IDS)
def test_reprove_is_byte_identical(vector):
    assert regenerate.prove(vector["gates"], vector["seed"]) == _blob(vector)


def _header(version: int) -> bytes:
    return MAGIC + struct.pack("<I", version)


def _bundle(header: bytes, blob: bytes) -> bytes:
    return header + struct.pack("<II", 1, len(blob)) + blob


@pytest.mark.parametrize("vector", VECTORS, ids=IDS)
def test_other_versions_fail_typed(vector):
    blob = _blob(vector)
    _, _, verifier = regenerate.setup(vector["gates"], vector["seed"])
    params = verifier.pcs.params
    assert blob.startswith(_header(VERSION))
    current = _bundle(_header(VERSION), blob)
    assert len(deserialize_proof_bundle(current, F, params)) == 1
    for version in (1, VERSION + 1):
        stale = _header(version) + blob[8:]
        for data, decode in (
            (stale, deserialize_proof),
            (_bundle(_header(version), blob), deserialize_proof_bundle),
            (_bundle(_header(VERSION), stale), deserialize_proof_bundle),
        ):
            with pytest.raises(ProofError, match="version"):
                decode(data, F, params)
