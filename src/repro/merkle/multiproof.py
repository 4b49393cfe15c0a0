"""Batch Merkle openings with shared-path deduplication.

The Brakedown commitment opens ``t`` codeword columns per evaluation
(§6's proofs "reach several MB" largely because of these paths).  Opening
each column with an independent authentication path wastes space: paths
of nearby leaves share most of their upper interior nodes.  A
*multiproof* sends each needed node exactly once — the minimal hash set
from which the verifier can recompute the root given the opened leaves.

Construction (standard): walk level by level; at each level the *known*
set is the nodes derivable so far.  For every known node whose sibling is
not known, emit the sibling hash.  Emission order is deterministic
(ascending node index per level), so verification consumes the same
stream without any index metadata beyond the leaf set itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import MerkleError
from ..hashing.hashers import DIGEST_SIZE, Hasher, get_hasher
from .tree import MerkleTree


@dataclass(frozen=True)
class MerkleMultiProof:
    """A deduplicated batch opening.

    Attributes:
        indices: Sorted, distinct leaf positions being opened.
        leaves:  Their leaf digests, in the same order.
        nodes:   The shared sibling hashes, in verification order.
        depth:   Tree depth (number of levels above the leaves).
    """

    indices: Tuple[int, ...]
    leaves: Tuple[bytes, ...]
    nodes: Tuple[bytes, ...]
    depth: int

    def size_bytes(self) -> int:
        return DIGEST_SIZE * (len(self.leaves) + len(self.nodes)) + 8 * len(
            self.indices
        )

    def verify(self, root: bytes, hasher: Optional[Hasher] = None) -> bool:
        """Recompute the root from leaves + shared nodes."""
        hasher = hasher or get_hasher("sha256")
        try:
            computed = _fold_multiproof(self, hasher)
        except MerkleError:
            return False
        return computed == root


def _sibling_plan(indices: Sequence[int], depth: int) -> List[List[int]]:
    """Per level, the sorted node indices whose hashes the proof must carry."""
    plan: List[List[int]] = []
    known = sorted(set(indices))
    for _ in range(depth):
        known_set = set(known)
        # Ascending, and each sibling once: sibling pairs are disjoint.
        plan.append([idx ^ 1 for idx in known if idx ^ 1 not in known_set])
        known = sorted({idx >> 1 for idx in known})
    return plan


def open_multi(
    tree: MerkleTree, indices: Sequence[int]
) -> MerkleMultiProof:
    """Open several leaves of ``tree`` with one deduplicated proof."""
    if not indices:
        raise MerkleError("must open at least one leaf")
    distinct = sorted(set(indices))
    for idx in distinct:
        if not 0 <= idx < tree.padded_leaves:
            raise MerkleError(f"leaf index {idx} out of range")
    depth = tree.depth
    plan = _sibling_plan(distinct, depth)
    nodes: List[bytes] = []
    for level, needed in enumerate(plan):
        layer = tree.layers[level]
        for idx in needed:
            nodes.append(layer[idx])
    return MerkleMultiProof(
        indices=tuple(distinct),
        leaves=tuple(tree.layers[0][idx] for idx in distinct),
        nodes=tuple(nodes),
        depth=depth,
    )


def _fold_multiproof(proof: MerkleMultiProof, hasher: Hasher) -> bytes:
    """Recompute the root; raises MerkleError on malformed proofs."""
    if len(proof.indices) != len(proof.leaves):
        raise MerkleError("index/leaf count mismatch")
    if not proof.indices:
        raise MerkleError("empty multiproof")
    for leaf in proof.leaves:
        if len(leaf) != DIGEST_SIZE:
            raise MerkleError("bad leaf digest size")
    for node in proof.nodes:
        if len(node) != DIGEST_SIZE:
            raise MerkleError("bad node digest size")
    current: Dict[int, bytes] = dict(zip(proof.indices, proof.leaves))
    if len(current) != len(proof.indices):
        raise MerkleError("duplicate leaf indices")
    plan = _sibling_plan(proof.indices, proof.depth)
    cursor = 0
    for level in range(proof.depth):
        for idx in plan[level]:
            if cursor >= len(proof.nodes):
                raise MerkleError("multiproof node stream exhausted")
            current[idx] = proof.nodes[cursor]
            cursor += 1
        parents: Dict[int, bytes] = {}
        for idx in sorted(current):
            if idx % 2 == 1 and (idx - 1) in current:
                continue  # handled with its left sibling
            sib = idx ^ 1
            if sib not in current:
                raise MerkleError(f"missing sibling for node {idx}")
            left = current[min(idx, sib)]
            right = current[max(idx, sib)]
            parents[idx >> 1] = hasher.compress(left, right)
        current = parents
    if cursor != len(proof.nodes):
        raise MerkleError("unconsumed multiproof nodes")
    if list(current.keys()) != [0]:
        raise MerkleError("multiproof did not converge to a single root")
    return current[0]
