"""Command-line interface: regenerate the paper's evaluation artifacts.

Usage::

    python -m repro list                  # available experiments
    python -m repro table3 [--device X]   # one table
    python -m repro fig9                  # utilization traces
    python -m repro all                   # everything
    python -m repro breakdown             # §6.3 speedup decomposition
    python -m repro prove --backend pool:4   # real proofs on a process pool
    python -m repro prove --backend cluster:pool:2,pool:2
    python -m repro prove --backend pipelined:4   # stage-pipelined threads
    python -m repro serve --requests 60   # streaming service on a synthetic trace

Resilience drills (S25)::

    python -m repro prove --backend resilient:cluster:pool:2,pool:2 \\
        --fault-plan crash:0.1,corrupt:0.02,down=0@1x1,seed=7
    python -m repro prove --journal out.jsonl            # crash-safe WAL
    python -m repro prove --journal out.jsonl --resume   # skip proven tasks
    python -m repro serve --fault-plan batch:0.2,seed=3  # chaos in the service

Cluster (S28)::

    python -m repro node --listen 127.0.0.1:9100 --backend pool:4
    python -m repro prove --backend remote:127.0.0.1:9100
    python -m repro prove --backend cluster:remote:127.0.0.1:9100,remote:127.0.0.1:9101
    python -m repro autoscale --rates 2,8,8,1 --per-proof-ms 250 --max-nodes 4
    python -m repro autoscale --rates 2,8 --spawn serial   # actuate real nodes

Fleet serving (S30)::

    python -m repro serve --fleet serial --min-nodes 1 --max-nodes 3 \\
        --per-proof-ms 50 --node-parallelism 1   # shed-or-scale loop

Unified experiment runner (S29)::

    python -m repro experiment list                       # the catalog
    python -m repro experiment run --suite ci --quick     # CI smoke suite
    python -m repro experiment run bench_hotpath          # one experiment
    python -m repro experiment reproduce-all --quick      # everything + EXPERIMENTS.md
    python -m repro experiment compare                    # vs previous run
    python -m repro experiment history bench_hotpath speedup
"""

from __future__ import annotations

import argparse
import random
import sys

from .bench import (
    compute_breakdown,
    compute_fig9,
    compute_table3,
    compute_table4,
    compute_table5,
    compute_table6,
    compute_table7,
    compute_table8,
    compute_table9,
    compute_table10,
    compute_table11,
    format_rows,
)

TABLES = {
    "table3": ("Table 3 — Merkle tree throughput (trees/ms)", compute_table3, True),
    "table4": ("Table 4 — sum-check throughput (proofs/ms)", compute_table4, True),
    "table5": ("Table 5 — encoder throughput (codes/ms)", compute_table5, True),
    "table6": ("Table 6 — module latency (ms)", compute_table6, True),
    "table7": ("Table 7 — amortized per-proof time (ms)", compute_table7, True),
    "table8": ("Table 8 — throughput/latency across GPUs", compute_table8, False),
    "table9": ("Table 9 — comm/comp overlap (ms)", compute_table9, False),
    "table10": ("Table 10 — device memory per proof (GB)", compute_table10, True),
    "table11": ("Table 11 — verifiable ML (VGG-16)", compute_table11, True),
}


def _print_fig9() -> None:
    chars = " ▁▂▃▄▅▆▇█"

    def spark(trace, width=60):
        step = max(1, len(trace) // width)
        return "".join(
            chars[min(8, int(trace[i][1] * 8 + 0.5))]
            for i in range(0, len(trace), step)
        )

    print("Figure 9 — GPU core utilization (3090Ti)")
    for module, traces in compute_fig9().items():
        print(f"  {module:9s} ours     |{spark(traces['ours'])}| "
              f"mean={traces['ours_mean']:.2f}")
        print(f"  {module:9s} baseline |{spark(traces['baseline'])}| "
              f"mean={traces['baseline_mean']:.2f}")


def _print_breakdown() -> None:
    bd = compute_breakdown()
    print("Speedup decomposition @ S = 2^20 (§6.3)")
    print(f"  new-protocol speedup: {bd['protocol_speedup']:.2f}x "
          f"(paper {bd['paper_protocol_speedup']}x)")
    print(f"  pipeline speedup:     {bd['pipeline_speedup']:.2f}x "
          f"(paper {bd['paper_pipeline_speedup']}x)")
    print(f"  total vs Bellperson:  {bd['total_speedup_vs_bellperson']:.1f}x")


def _run_prove(args) -> int:
    """Generate a real proof batch on an execution backend and report."""
    from .core import ProofTask, SnarkProver, make_pcs, random_circuit
    from .errors import ExecutionError
    from .execution import resolve_backend
    from .field import DEFAULT_FIELD
    from .resilience import (
        FaultInjector,
        FaultPlan,
        apply_fault_plan,
        journaled_prove,
        split_results,
    )
    from .runtime import JsonlTraceSink, ProverSpec

    if args.tasks < 1:
        raise ExecutionError(f"--tasks must be at least 1, got {args.tasks}")
    cc = random_circuit(DEFAULT_FIELD, args.gates, seed=1)
    pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=8)
    prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
    spec = ProverSpec.from_prover(prover)
    # One circuit, many *distinct* witnesses (the paper's batch shape).
    # Sharing cc.witness across tasks would alias every task's
    # content-addressed journal key: on --resume, a quarantined poison
    # task would then be "found" in the journal under another task's
    # identical key and silently skipped instead of re-attempted.
    tasks = []
    for i in range(args.tasks):
        rng = random.Random(f"prove-cli/task/{i}")
        variant = random_circuit(
            DEFAULT_FIELD,
            args.gates,
            seed=1,
            input_values=DEFAULT_FIELD.rand_vector(8, rng),
        )
        assert variant.r1cs.digest() == cc.r1cs.digest()
        tasks.append(ProofTask(i, variant.witness, variant.public_values))
    trace = JsonlTraceSink(args.trace) if args.trace else None
    backend = resolve_backend(args.backend or "serial")
    injector = None
    if args.fault_plan:
        plan = FaultPlan.parse(args.fault_plan)
        injector = FaultInjector(plan)
        # The drill assumes the substrate's retry machinery is on;
        # without a floor a plain serial oracle dies on the first crash.
        apply_fault_plan(backend, injector, min_retries=2)
        if hasattr(backend, "verify_on_return") and plan.corrupt > 0:
            backend.verify_on_return = True
    print(
        f"Proving {args.tasks} tasks at S = {args.gates} gates on "
        f"backend {backend.name} (parallelism {backend.parallelism})…"
    )
    if args.fault_plan:
        print(f"fault plan: {args.fault_plan}")
    report = None
    try:
        if args.journal:
            results, stats, report = journaled_prove(
                backend,
                spec,
                tasks,
                args.journal,
                resume=args.resume,
                checkpoint_every=args.checkpoint_every,
                trace=trace,
            )
        else:
            results, stats = backend.prove_tasks(spec, tasks, trace=trace)
    finally:
        if trace is not None:
            trace.close()
    print(stats.report())
    rstats = getattr(backend, "last_resilience_stats", None)
    if rstats is not None:
        print(rstats.report())
    if report is not None:
        print(report.summary())
    proofs, quarantined = split_results(results)
    verifier = spec.build_verifier()
    ok = all(
        verifier.verify(proof, tasks[index].public_values)
        for index, proof in proofs
    )
    print(f"all {len(proofs)} returned proofs verify: {ok}")
    for q in quarantined:
        print(f"quarantined: {q}")
    if args.trace:
        print(f"trace events written to {args.trace}")
    return 0 if ok and proofs else 1


def _run_serve(args) -> int:
    """Replay a synthetic arrival trace through the streaming service."""
    from .core import ProofTask, SnarkProver, make_pcs, random_circuit
    from .errors import ServiceError
    from .field import DEFAULT_FIELD
    from .runtime import JsonlTraceSink, ProverSpec
    from .service import (
        BatchPolicy,
        ProofService,
        RuntimeProofBackend,
        bursty_trace,
        poisson_trace,
        replay,
        spec_key,
        task_witness_key,
    )

    if args.requests < 1:
        raise ServiceError(f"--requests must be at least 1, got {args.requests}")
    if args.verify_sample < 1:
        raise ServiceError(
            f"--verify-sample must be at least 1, got {args.verify_sample}"
        )
    # Two circuit scales so the batcher's circuit-key grouping is live.
    specs, keys, circuits = [], [], []
    for i, gates in enumerate(dict.fromkeys([args.gates, args.gates * 2])):
        cc = random_circuit(DEFAULT_FIELD, gates, seed=10 + i)
        pcs = make_pcs(DEFAULT_FIELD, cc.r1cs, num_col_checks=6)
        prover = SnarkProver(cc.r1cs, pcs, public_indices=cc.public_indices)
        spec = ProverSpec.from_prover(prover)
        specs.append(spec)
        keys.append(spec_key(spec))
        circuits.append(cc)

    trace_fn = poisson_trace if args.pattern == "poisson" else bursty_trace
    events = trace_fn(
        args.requests,
        args.rate,
        seed=args.seed,
        duplicate_fraction=args.duplicates,
        deadline_seconds=args.deadline if args.deadline > 0 else None,
    )

    def make_request(i):
        which = i % len(circuits)
        cc = circuits[which]
        task = ProofTask(i, cc.witness, cc.public_values)
        # Tag the dedup key with the arrival index: each fresh arrival is
        # distinct work; only trace-marked duplicates share a key.
        witness_key = task_witness_key(task) + i.to_bytes(4, "little")
        return task, keys[which], witness_key

    sink = JsonlTraceSink(args.trace) if args.trace else None
    fleet = None
    if args.fleet:
        if args.backend is not None:
            print(
                "error: --fleet is mutually exclusive with --backend "
                "(--fleet builds the cluster backend itself; choose what "
                "its nodes run with the fleet selector, e.g. --fleet "
                "lanes:8)",
                file=sys.stderr,
            )
            if sink is not None:
                sink.close()
            return 1
        from .service import launch_fleet

        fleet = launch_fleet(
            args.fleet,
            initial_nodes=max(1, args.min_nodes),
            trace=sink,
        )
        backend = RuntimeProofBackend.from_specs(specs, backend=fleet.backend)
    else:
        backend = RuntimeProofBackend.from_specs(
            specs, backend=args.backend or "serial"
        )
    injector = None
    if args.fault_plan:
        from .resilience import FaultInjector, FaultPlan, apply_fault_plan

        plan = FaultPlan.parse(args.fault_plan)
        injector = FaultInjector(plan)
        apply_fault_plan(backend.backend, injector, min_retries=2)
        if hasattr(backend.backend, "verify_on_return") and plan.corrupt > 0:
            backend.backend.verify_on_return = True
    policy = BatchPolicy(max_batch_size=args.batch_size)
    print(
        f"Serving {args.requests} {args.pattern} arrivals at ~{args.rate}/s "
        f"(batch<= {args.batch_size}, queue<= {args.max_queue}, "
        f"backend {backend.backend.name})…"
    )
    if args.fault_plan:
        print(f"fault plan: {args.fault_plan}")
    if fleet is not None:
        print(
            f"fleet: {fleet.pool.size} '{args.fleet}' node(s), scaling "
            f"{args.min_nodes}..{args.max_nodes}, supervisor tick "
            f"{args.supervisor_interval * 1e3:.0f} ms"
        )
    service = ProofService(
        backend,
        policy=policy,
        max_queue=args.max_queue,
        trace=sink,
        fault_injector=injector,
    )
    supervisor = None
    if fleet is not None:
        from .cluster import LoadModel

        supervisor = fleet.supervise(
            service,
            LoadModel(
                per_proof_seconds=args.per_proof_ms / 1e3,
                node_parallelism=args.node_parallelism,
            ),
            min_nodes=args.min_nodes,
            max_nodes=args.max_nodes,
            interval_seconds=args.supervisor_interval,
            shrink_patience=args.shrink_patience,
        )
    fleet_nodes = None
    try:
        tickets, rejected = replay(service, events, make_request)
        service.drain(timeout=600)
        if fleet is not None:
            fleet_nodes = fleet.pool.size
    finally:
        service.close()
        if fleet is not None:
            fleet.close()
        if sink is not None:
            sink.close()
    checked = 0
    failed = 0
    ok = True
    verifiers = {}
    for event_index, ticket in enumerate(tickets):
        if ticket is None:
            continue
        try:
            proof = ticket.result(timeout=60)
        except Exception:
            # Under an injected fault plan some requests legitimately
            # fail (batch faults, quarantines); count, don't abort.
            failed += 1
            continue
        if checked >= args.verify_sample:
            continue  # still drain every ticket above
        event = events[event_index]
        target = (
            event.duplicate_of if event.duplicate_of is not None
            else event_index
        )
        which = target % len(circuits)
        if which not in verifiers:
            verifiers[which] = backend.verifier_for(keys[which])
        ok = ok and verifiers[which].verify(
            proof, circuits[which].public_values
        )
        checked += 1
    print(service.stats.report())
    rstats = getattr(backend.backend, "last_resilience_stats", None)
    if rstats is not None:
        print(rstats.report())
    if fleet is not None:
        cluster = fleet.cluster
        print(
            f"fleet           : finished with {fleet_nodes} node(s) "
            f"(supervisor ticks {supervisor.ticks}, "
            f"errors {supervisor.errors}); hedges "
            f"issued {cluster.hedges_issued}, won {cluster.hedges_won}, "
            f"denied {cluster.hedges_denied}"
        )
    print(f"rejected at admission: {rejected}")
    if failed:
        print(f"failed tickets: {failed}")
    print(f"verified sample of {checked}: {'ok' if ok else 'FAILED'}")
    if args.trace:
        print(f"trace events written to {args.trace}")
    if failed and not args.fault_plan:
        return 1
    return 0 if ok else 1


def _run_node(args) -> int:
    """Serve one proving node over TCP until interrupted."""
    from .cluster import NodeServer

    host, sep, port = args.listen.rpartition(":")
    if not sep or not port.isdigit() or int(port) > 65535:
        print(f"error: --listen wants HOST:PORT, got {args.listen!r}",
              file=sys.stderr)
        return 1
    server = NodeServer(
        host or "127.0.0.1",
        int(port),
        backend=args.backend or "serial",
        chunk_size=args.chunk_size,
        die_after=args.die_after,
    )
    # The READY line is the spawn contract: NodePool (and the CI smoke
    # job) block on it to learn the ephemeral port.
    print(f"READY {server.host} {server.port}", flush=True)
    print(
        f"node serving backend {server.backend.name} "
        f"(parallelism {getattr(server.backend, 'parallelism', 1)}, "
        f"chunk {server.chunk_size})",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


def _run_autoscale(args) -> int:
    """Replay arrival-rate readings through the load-model autoscaler."""
    from .cluster import Autoscaler, LoadModel, NodePool
    from .runtime import JsonlTraceSink

    try:
        rates = [float(r) for r in args.rates.split(",") if r.strip()]
    except ValueError:
        print(f"error: --rates wants comma-separated numbers, "
              f"got {args.rates!r}", file=sys.stderr)
        return 1
    if not rates:
        print("error: --rates is empty", file=sys.stderr)
        return 1
    model = LoadModel(
        per_proof_seconds=args.per_proof_ms / 1e3,
        node_parallelism=args.node_parallelism,
    )
    trace = JsonlTraceSink(args.trace) if args.trace else None
    pool = NodePool(backend=args.spawn) if args.spawn else None
    mode = f"spawning '{args.spawn}' nodes" if pool else "dry run"
    print(
        f"autoscaling for {model.per_proof_seconds * 1e3:.0f} ms/proof, "
        f"{model.node_parallelism} proofs/node, "
        f"{args.min_nodes}..{args.max_nodes} nodes ({mode})"
    )
    scaler = Autoscaler(
        model,
        pool,
        min_nodes=args.min_nodes,
        max_nodes=args.max_nodes,
        cooldown_seconds=0.0,
        shrink_patience=args.shrink_patience,
        trace=trace,
    )
    try:
        if pool is not None:
            pool.scale_to(args.min_nodes)
        for rate in rates:
            decision = scaler.observe(rate)
            print(
                f"  rate {rate:6.1f}/s  util {decision['utilization']:.2f}  "
                f"target {decision['target']}  "
                f"{decision['action']} ({decision['reason']})  "
                f"nodes {scaler.current_nodes}"
            )
        if pool is not None:
            print(f"final fleet: {pool.cluster_selector()}")
    finally:
        if pool is not None:
            pool.close()
        if trace is not None:
            trace.close()
    if args.trace:
        print(f"trace events written to {args.trace}")
    return 0


def main(argv=None) -> int:
    # `experiment` delegates to the S29 runner CLI before the paper-table
    # argparse below: the subcommand has its own flag grammar (suites,
    # guard/param overrides) that must not collide with the global flags.
    raw = list(sys.argv[1:] if argv is None else argv)
    if raw and raw[0] == "experiment":
        from .experiments.cli import main as experiment_main

        return experiment_main(raw[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the BatchZK paper's evaluation artifacts.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(TABLES)
        + ["fig9", "breakdown", "all", "list", "apidoc", "prove", "serve",
           "node", "autoscale"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--device",
        default=None,
        help="GPU to simulate for tables 3-7, 10 and 11 (default: GH200)",
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SELECTOR",
        help="execution backend for `prove` / `serve` / `node`, e.g. "
        "'serial', 'pool:4', 'lanes:auto', 'lanes:16:pool:4', "
        "'pipelined:4', 'cluster:pool:2,pool:2' (default: serial)",
    )
    parser.add_argument(
        "--tasks",
        type=int,
        default=8,
        help="batch size for `prove` (default 8)",
    )
    parser.add_argument(
        "--gates",
        type=int,
        default=96,
        help="circuit scale (multiplication gates) for `prove` (default 96)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="JSONL trace-event sink for `prove` / `serve`",
    )
    resilience_group = parser.add_argument_group("resilience options")
    resilience_group.add_argument(
        "--fault-plan",
        default=None,
        metavar="PLAN",
        help="seeded chaos plan for `prove` / `serve`, e.g. "
        "'crash:0.1,corrupt:0.02,seed=7' (kinds: crash, slow, corrupt, "
        "outage, pool_death, batch; plus down=C@FxN and poison=A+B)",
    )
    resilience_group.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="crash-safe JSONL proof journal for `prove` (write-ahead "
        "log; fsync per completed proof)",
    )
    resilience_group.add_argument(
        "--resume",
        action="store_true",
        help="with --journal: skip tasks already recorded in the journal",
    )
    resilience_group.add_argument(
        "--checkpoint-every",
        type=int,
        default=1,
        metavar="N",
        help="with --journal: prove (and durably record) N tasks per "
        "checkpoint chunk (default 1)",
    )
    serve_group = parser.add_argument_group("serve options")
    serve_group.add_argument(
        "--requests", type=int, default=60,
        help="arrivals to replay for `serve` (default 60)",
    )
    serve_group.add_argument(
        "--rate", type=float, default=300.0,
        help="mean arrival rate, requests/second (default 300)",
    )
    serve_group.add_argument(
        "--pattern", choices=["poisson", "bursty"], default="poisson",
        help="arrival process shape (default poisson)",
    )
    serve_group.add_argument(
        "--batch-size", type=int, default=8,
        help="max requests per dispatched batch (default 8)",
    )
    serve_group.add_argument(
        "--max-queue", type=int, default=128,
        help="admission-control queue bound (default 128)",
    )
    serve_group.add_argument(
        "--duplicates", type=float, default=0.15,
        help="fraction of arrivals repeating earlier work (default 0.15)",
    )
    serve_group.add_argument(
        "--deadline", type=float, default=0.0,
        help="relative deadline (s) for interactive arrivals; 0 = none",
    )
    serve_group.add_argument(
        "--seed", type=int, default=0, help="trace RNG seed (default 0)"
    )
    serve_group.add_argument(
        "--verify-sample", type=int, default=8,
        help="how many returned proofs to spot-verify (default 8)",
    )
    serve_group.add_argument(
        "--fleet", default=None, metavar="SELECTOR",
        help="serve over a supervised local node fleet: spawn --min-nodes "
        "`python -m repro node` subprocesses wrapping this inner backend "
        "(e.g. 'serial', 'pool:2'), autoscale --min-nodes..--max-nodes "
        "from the live arrival rate, and shed only while scaling lags",
    )
    serve_group.add_argument(
        "--supervisor-interval", type=float, default=0.25,
        help="fleet supervisor tick period in seconds (default 0.25)",
    )
    cluster_group = parser.add_argument_group("cluster options")
    cluster_group.add_argument(
        "--listen", default="127.0.0.1:0", metavar="HOST:PORT",
        help="listen address for `node` (port 0 = ephemeral; the node "
        "prints 'READY host port' once bound)",
    )
    cluster_group.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="tasks per streamed RESULT frame for `node` (default: the "
        "wrapped backend's parallelism)",
    )
    cluster_group.add_argument(
        "--die-after", type=int, default=None, metavar="N",
        help="chaos drill for `node`: hard-exit after proving N tasks",
    )
    cluster_group.add_argument(
        "--rates", default="1,4,8,8,2,1", metavar="R1,R2,...",
        help="arrival-rate readings (proofs/s) for `autoscale`",
    )
    cluster_group.add_argument(
        "--per-proof-ms", type=float, default=250.0,
        help="per-proof busy cost for `autoscale` (default 250 ms)",
    )
    cluster_group.add_argument(
        "--node-parallelism", type=int, default=1,
        help="concurrent proofs per node for `autoscale` (default 1)",
    )
    cluster_group.add_argument(
        "--min-nodes", type=int, default=1,
        help="fleet floor for `autoscale` (default 1)",
    )
    cluster_group.add_argument(
        "--max-nodes", type=int, default=4,
        help="fleet ceiling for `autoscale` (default 4)",
    )
    cluster_group.add_argument(
        "--shrink-patience", type=int, default=2,
        help="consecutive low readings before `autoscale` shrinks "
        "(default 2)",
    )
    cluster_group.add_argument(
        "--spawn", default=None, metavar="SELECTOR",
        help="for `autoscale`: actuate real local node subprocesses "
        "wrapping this backend (default: dry run, no processes)",
    )
    args = parser.parse_args(argv)

    if args.experiment in ("node", "autoscale"):
        from .errors import ClusterError, ExecutionError

        try:
            return _run_node(args) if args.experiment == "node" else \
                _run_autoscale(args)
        except (ClusterError, ExecutionError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.experiment in ("prove", "serve"):
        from .errors import (
            CircuitError,
            ClusterError,
            ExecutionError,
            ProofError,
            ResilienceError,
            ServiceError,
        )

        try:
            return _run_prove(args) if args.experiment == "prove" else \
                _run_serve(args)
        except (
            CircuitError, ClusterError, ExecutionError, ProofError,
            ResilienceError, ServiceError, OSError,
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    if args.experiment == "apidoc":
        from .bench.apidoc import write_api_markdown

        print(f"wrote {write_api_markdown()}")
        return 0

    if args.experiment == "list":
        for key, (title, _, _) in sorted(TABLES.items()):
            print(f"{key:8s} {title}")
        print(f"{'fig9':8s} Figure 9 — GPU core utilization traces")
        print(f"{'breakdown':8s} §6.3 protocol-vs-pipeline decomposition")
        return 0

    if args.device is not None:
        from .errors import SimulationError
        from .gpu import get_gpu

        try:
            if args.experiment != "all" and not TABLES.get(
                    args.experiment, (None, None, False))[2]:
                raise SimulationError(f"{args.experiment} takes no --device")
            get_gpu(args.device)
        except SimulationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1

    targets = sorted(TABLES) if args.experiment == "all" else [args.experiment]
    for target in targets:
        if target == "fig9":
            _print_fig9()
            continue
        if target == "breakdown":
            _print_breakdown()
            continue
        title, fn, takes_device = TABLES[target]
        kwargs = {}
        if args.device and takes_device:
            kwargs["device"] = args.device
        print(format_rows(title, fn(**kwargs)))
        print()
    if args.experiment == "all":
        _print_fig9()
        print()
        _print_breakdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
