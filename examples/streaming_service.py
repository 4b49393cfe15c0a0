#!/usr/bin/env python3
"""Streaming proof service: the paper's "flowing stream" setting, live.

The paper's §1 scenario is a ZKP service provider continuously absorbing
customer inputs.  This demo opens the streaming front door over a real
verifiable-ML model and pushes a small mixed workload through it:

1. `MlaasService.serve()` starts a `ProofService` whose dynamic batcher
   groups same-circuit requests into uniform batches (one shared prover
   setup per batch);
2. customers submit INTERACTIVE requests with deadlines alongside BULK
   backfill, plus a couple of exact repeats — which the result cache and
   single-flight dedup serve without proving twice;
3. every ticket resolves to a `PredictionResponse` the customer verifies
   against the model's Merkle commitment;
4. the `ServiceStats` dashboard shows the batch shapes, cache
   absorption, and end-to-end latency percentiles.

Run:  PYTHONPATH=src python examples/streaming_service.py
"""

from repro.service import BatchPolicy, Priority
from repro.zkml import MlaasService, random_input, tiny_cnn

DISTINCT = 5  # distinct customer inputs
REPEATS = 3   # exact duplicates sprinkled on top


def main() -> None:
    model = tiny_cnn(input_size=4, channels=1, classes=3)
    model.init_params(3)
    service = MlaasService(model, num_col_checks=6)
    print(f"model committed, root {service.model_root.hex()[:16]}…")

    inputs = [
        random_input(model.input_shape, seed=100 + i, frac_bits=4)
        for i in range(DISTINCT)
    ]
    policy = BatchPolicy(max_batch_size=4)

    with service.serve(policy=policy) as front:
        tickets = []
        for i, x in enumerate(inputs):
            interactive = i % 2 == 0
            tickets.append(front.submit(
                x,
                priority=(
                    Priority.INTERACTIVE if interactive else Priority.BULK
                ),
                deadline_seconds=120.0 if interactive else None,
            ))
        # Repeat traffic: identical (model, input) pairs dedupe.
        repeats = [
            front.submit(inputs[i % DISTINCT]) for i in range(REPEATS)
        ]
        responses = [t.result(timeout=300) for t in tickets]
        repeat_responses = [t.result(timeout=300) for t in repeats]

        print(f"\n=== {len(tickets)} fresh + {len(repeats)} repeat "
              f"requests served ===")
        for i, (x, resp) in enumerate(zip(inputs, responses)):
            ok = service.verify_prediction(x, resp)
            print(f"  request {i}: prediction {resp.prediction}, "
                  f"proof verifies: {ok}")
            assert ok, "customer-side verification failed"
        for i, (ticket, resp) in enumerate(zip(repeats, repeat_responses)):
            ok = service.verify_prediction(inputs[i % DISTINCT], resp)
            print(f"  repeat  {i}: served via {ticket.source}, "
                  f"proof verifies: {ok}")
            assert ok
            assert ticket.source in ("cache", "coalesced")

        print("\n=== service dashboard ===")
        for line in front.stats.report().splitlines():
            print(f"  {line}")
        stats = front.stats
        assert stats.completed == DISTINCT + REPEATS
        assert stats.cache_hits + stats.coalesced >= REPEATS
        assert sum(stats.batch_size_histogram.values()) >= 1
    print("\nstream served: every proof verified, repeats never re-proved")


if __name__ == "__main__":
    main()
