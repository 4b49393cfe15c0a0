#!/usr/bin/env python3
"""Anatomy of the Brakedown polynomial commitment (encoder + Merkle).

Walks through what the paper's commit path actually does — matrixize,
encode rows with the linear-time encoder, Merkle-commit codeword columns —
then opens an evaluation and shows which checks catch which attacks.

Run:  python examples/commitment_demo.py
"""

import random

from repro.commitment import BrakedownPCS
from repro.field import DEFAULT_FIELD, MultilinearPolynomial
from repro.hashing import Transcript

F = DEFAULT_FIELD
RNG = random.Random(99)


def main() -> None:
    num_vars = 10
    pcs = BrakedownPCS(F, num_vars=num_vars, seed=3, num_col_checks=16)
    params = pcs.params
    print("Commitment parameters")
    print(f"  polynomial:      {1 << num_vars} evaluations ({num_vars} variables)")
    print(f"  matrix shape:    {params.num_rows} x {params.num_cols}")
    print(
        f"  codeword length: {params.codeword_length} "
        f"(inverse rate {params.encoder_params.inv_rate}, "
        f"{pcs.encoder.num_stages} recursion stages)"
    )
    print(f"  column checks:   {params.num_col_checks}\n")

    poly = MultilinearPolynomial.random(F, num_vars, RNG)
    commitment, state = pcs.commit(poly.evals)
    print(f"Commit: Merkle root {commitment.root.hex()[:32]}…")
    print(f"  encoder work: {pcs.encoder.total_nnz()} sparse MACs per row-set")

    point = F.rand_vector(num_vars, RNG)
    value = pcs.evaluate(state, point)
    assert value == poly.evaluate(point)
    proof = pcs.open(state, point, Transcript(b"demo"))
    print(f"\nOpen at a random point: value = {value}")
    print(
        f"  proof: {len(proof.proximity_row)}-element proximity row + "
        f"{len(proof.evaluation_rows[0])}-element evaluation row + "
        f"{len(proof.columns)} opened columns + "
        f"{len(proof.nodes)} multiproof nodes "
        f"({proof.size_bytes(F)} bytes total)"
    )

    ok = pcs.verify(commitment, point, value, proof, Transcript(b"demo"))
    print(f"  verify: {'ACCEPT' if ok else 'REJECT'}")
    assert ok

    print("\nAttack drills (every one must be caught):")
    import dataclasses

    wrong_value = not pcs.verify(
        commitment, point, (value + 1) % F.modulus, proof, Transcript(b"demo")
    )
    print(f"  claim a wrong evaluation        -> rejected: {wrong_value}")

    bad_row = dataclasses.replace(
        proof,
        evaluation_rows=[[(v + 1) % F.modulus for v in proof.evaluation_rows[0]]],
    )
    caught = not pcs.verify(commitment, point, value, bad_row, Transcript(b"demo"))
    print(f"  forge the evaluation row        -> rejected: {caught}")

    bad_col = dataclasses.replace(
        proof,
        columns=[[(v + 1) % F.modulus for v in proof.columns[0]]]
        + list(proof.columns[1:]),
    )
    caught = not pcs.verify(commitment, point, value, bad_col, Transcript(b"demo"))
    print(f"  tamper an opened column         -> rejected: {caught}")

    other = MultilinearPolynomial.random(F, num_vars, RNG)
    com_other, _ = pcs.commit(other.evals)
    caught = not pcs.verify(com_other, point, value, proof, Transcript(b"demo"))
    print(f"  swap in another commitment root -> rejected: {caught}")

    # One opening covers any number of points: a boolean point's row is a
    # plain matrix row, and points sharing a row half share its row.
    corner = [1] * num_vars
    points = [point, corner]
    values = [value, poly.evals[-1]]
    many = pcs.open_many(state, points, Transcript(b"demo"))
    ok = pcs.verify_many(commitment, points, values, many, Transcript(b"demo"))
    print(
        f"\nOpen at {len(points)} points together: "
        f"{len(many.evaluation_rows)} evaluation rows, {many.size_bytes(F)} bytes "
        f"(vs {2 * proof.size_bytes(F)} for two openings) -> "
        f"{'ACCEPT' if ok else 'REJECT'}"
    )
    assert ok


if __name__ == "__main__":
    main()
