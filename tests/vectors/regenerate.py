"""Regenerate the golden proof vectors and their manifest.

    python tests/vectors/regenerate.py            # rewrite tests/vectors/
    python tests/vectors/regenerate.py --out DIR  # write into DIR instead

Each vector is the serialized proof of ``random_circuit(F, gates, seed)``
under ``make_pcs(F, r1cs, num_col_checks=6)``.  ``manifest.json`` records
the format version and every file's size and SHA-256, so a change to any
proof byte shows up as a manifest diff.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core import (  # noqa: E402
    SnarkProver,
    SnarkVerifier,
    make_pcs,
    random_circuit,
)
from repro.core.serialize import VERSION, serialize_proof  # noqa: E402
from repro.field import DEFAULT_FIELD as F  # noqa: E402

GATES = (1 << 6, 1 << 8, 1 << 10)
SEEDS = (1, 2)
NUM_COL_CHECKS = 6


def vector_name(gates: int, seed: int) -> str:
    return f"random-g{gates}-s{seed}.bin"


def setup(gates: int, seed: int):
    """The circuit, prover and verifier one vector is made with."""
    cc = random_circuit(F, gates, seed=seed)
    pcs = make_pcs(F, cc.r1cs, num_col_checks=NUM_COL_CHECKS)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    verifier = SnarkVerifier(cc.r1cs, pcs, public_indices=cc.public_indices)
    return cc, prover, verifier


def prove(gates: int, seed: int) -> bytes:
    cc, prover, _ = setup(gates, seed)
    return serialize_proof(prover.prove(cc.witness, cc.public_values), F)


def regenerate(out: Path) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    vectors = []
    for gates in GATES:
        for seed in SEEDS:
            blob = prove(gates, seed)
            name = vector_name(gates, seed)
            (out / name).write_bytes(blob)
            vectors.append(
                {
                    "file": name,
                    "gates": gates,
                    "seed": seed,
                    "bytes": len(blob),
                    "sha256": hashlib.sha256(blob).hexdigest(),
                }
            )
    manifest = {
        "version": VERSION,
        "num_col_checks": NUM_COL_CHECKS,
        "vectors": vectors,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE)
    args = parser.parse_args(argv)
    manifest = regenerate(args.out)
    print(f"wrote {len(manifest['vectors'])} vectors + manifest.json to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
