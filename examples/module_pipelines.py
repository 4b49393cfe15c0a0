#!/usr/bin/env python3
"""The three pipelined ZKP modules, functional and simulated (paper §3).

For each of Merkle tree, sum-check and linear-time encoder this script:

* runs the *real* Python implementation on a small input,
* simulates batch generation at paper scale under both schedulers,
* renders a Figure 9-style utilization sparkline.

Run:  python examples/module_pipelines.py
"""

import random

from repro.bench import compute_fig9
from repro.field import DEFAULT_FIELD, MultilinearPolynomial
from repro.gpu import GpuCostModel, get_gpu, run_naive, run_pipelined
from repro.hashing import Transcript
from repro.merkle import MerkleTree, open_multi
from repro.pipeline import encoder_graph, merkle_graph, sumcheck_graph
from repro.encoder import SpielmanEncoder
from repro.sumcheck import evaluation_point, prove

F = DEFAULT_FIELD
RNG = random.Random(2024)


def functional_demos() -> None:
    print("=== Functional module demos (real Python crypto) ===\n")

    blocks = [bytes([i % 256]) * 64 for i in range(64)]
    tree = MerkleTree.from_blocks(blocks)
    opening = open_multi(tree, [17])
    print(f"  Merkle:   64-block tree, root {tree.root.hex()[:24]}…, "
          f"opening of leaf 17 verifies: {opening.verify(tree.root, tree.hasher)}")

    poly = MultilinearPolynomial.random(F, 8, RNG)
    result = prove(F, poly.evals, Transcript(b"demo"))
    point = evaluation_point(result.challenges)
    print(f"  Sumcheck: n=8 proof, H = {result.proof.claimed_sum}, final "
          f"claim matches p(r): {poly.evaluate(point) == result.proof.final_value}")

    enc = SpielmanEncoder(F, 128, seed=1)
    msg = F.rand_vector(128, RNG)
    cw = enc.encode(msg)
    print(f"  Encoder:  128 -> {len(cw)} symbols across {enc.num_stages} "
          f"recursion stages, systematic prefix intact: {cw[:128] == msg}\n")


def simulated_section() -> None:
    print("=== Simulated batch throughput per module (GH200, N = 2^20) ===\n")
    gh = get_gpu("GH200")
    costs = GpuCostModel()
    workloads = [
        ("merkle", merkle_graph(1 << 20, costs), costs.naive_merkle_penalty, None),
        ("sumcheck", sumcheck_graph(20, costs), costs.naive_sumcheck_penalty, None),
        (
            "encoder",
            encoder_graph(1 << 20, costs),
            costs.naive_encoder_penalty,
            costs.encoder_stage_launch_seconds,
        ),
    ]
    for name, graph, penalty, launch in workloads:
        ours = run_pipelined(gh, graph, 128, costs=costs, include_transfers=False)
        base = run_naive(
            gh, graph, 128, costs=costs, compute_penalty=penalty,
            launch_seconds=launch,
        )
        print(
            f"  {name:9s} pipelined {ours.steady_throughput_per_ms:8.3f} items/ms"
            f"   baseline {base.steady_throughput_per_ms:8.3f} items/ms"
            f"   -> {ours.steady_throughput_per_second / base.steady_throughput_per_second:5.2f}x"
        )
    print()


def figure9_sparklines() -> None:
    print("=== Figure 9: core utilization over time (3090Ti) ===\n")
    chars = " ▁▂▃▄▅▆▇█"

    def spark(trace, width=56):
        step = max(1, len(trace) // width)
        return "".join(
            chars[min(8, int(trace[i][1] * 8 + 0.5))]
            for i in range(0, len(trace), step)
        )

    for module, traces in compute_fig9().items():
        print(f"  {module:9s} pipelined |{spark(traces['ours'])}|")
        print(f"  {module:9s} baseline  |{spark(traces['baseline'])}|\n")


if __name__ == "__main__":
    functional_demos()
    simulated_section()
    figure9_sparklines()
