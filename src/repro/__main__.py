"""Command-line entry point: run paper experiments by id.

Usage::

    python -m repro list                      # enumerate experiments
    python -m repro run fig4                  # run one, print its table
    python -m repro run table3 --scale paper  # full-size run
    python -m repro run all                   # everything (slow)
    python -m repro obs --arch kws-s          # observability report:
                                              # modeled vs measured per-op
                                              # timings + counters + spans
    python -m repro search --checkpoint c.npz # checkpointed mini DNAS run
    python -m repro resume c.npz              # continue an interrupted run
    python -m repro validate model.mbuf       # parse + graph-invariant check
    python -m repro validate model.mbuf --device STM32F446RE
                                              # plus SRAM/flash guardrails
    python -m repro validate model.mbuf --fuzz 500
                                              # fuzz the deserializer with
                                              # mutants of this model
    python -m repro compile model.mbuf        # run the graph compiler,
                                              # print the pass-by-pass
                                              # rewrite summary
    python -m repro compile model.mbuf --level O1 -o out.mbuf
                                              # write the compiled model
    python -m repro serve-bench               # replay a seeded load trace
                                              # through the micro-batching
                                              # server; p50/p95/p99 + shed
    python -m repro serve-bench --requests 100000 --max-batch 16
                                              # full-depth load replay
    python -m repro spec validate my.yaml     # schema + cross-reference +
                                              # budget-feasibility check
    python -m repro spec run fleet_mixed      # compile a scenario spec and
                                              # run its experiments/fleets
    python -m repro chaos                     # replay the serve load trace
                                              # and a fabric sweep under
                                              # seeded fault schedules and
                                              # check the survival
                                              # invariants (exit 1 on any
                                              # violation)
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import Dict, List

from repro.experiments import format_table, save_result
from repro.utils.scale import resolve_scale

#: experiment id → (module, description). Ablations with sub-parts expose
#: their combined ``run`` where available.
EXPERIMENTS: Dict[str, str] = {
    "table1": "repro.experiments.table1_devices",
    "fig2": "repro.experiments.fig2_memory_map",
    "fig3": "repro.experiments.fig3_layer_latency",
    "fig4": "repro.experiments.fig4_model_latency",
    "fig5": "repro.experiments.fig5_energy",
    "fig6": "repro.experiments.fig6_vww_archs",
    "fig7": "repro.experiments.fig7_kws_pareto",
    "fig8": "repro.experiments.fig8_vww_pareto",
    "fig9": "repro.experiments.fig9_power_trace",
    "table2": "repro.experiments.table2_kws_4bit",
    "table3": "repro.experiments.table3_anomaly",
    "table4": "repro.experiments.table4_full_results",
    "ablation_search": "repro.experiments.ablation_search_methods",
    "ablation_runtime": "repro.experiments.ablation_runtime",
    "ablation_mixed": "repro.experiments.ablation_mixed_precision",
    "ablations": "repro.experiments.ablations",
}

#: Experiments that train models (minutes at CI scale, hours at paper scale).
HEAVY = {"fig6", "fig7", "fig8", "table2", "table3", "ablation_search", "ablation_mixed", "ablations"}


def _run_one(experiment_id: str, scale, seed: int, save: bool) -> int:
    module = importlib.import_module(EXPERIMENTS[experiment_id])
    outcome = module.run(scale=scale, rng=seed)
    results = outcome if isinstance(outcome, list) else [outcome]
    for result in results:
        print(format_table(result))
        print()
        if save:
            path = save_result(result)
            print(f"saved -> {path}\n")
    return 0


def _tiny_obs_arch():
    """A small fixed architecture so ``repro obs`` runs in well under a second."""
    from repro.models.spec import ArchSpec, ConvSpec, DenseSpec, DWConvSpec, GlobalPoolSpec

    return ArchSpec(
        name="obs-tiny",
        input_shape=(12, 12, 1),
        layers=(
            ConvSpec(8, kernel=3, stride=2),
            DWConvSpec(kernel=3, stride=1),
            ConvSpec(16, kernel=1),
            GlobalPoolSpec(),
            DenseSpec(4),
        ),
    )


def _obs_arch(name: str):
    if name == "tiny":
        return _tiny_obs_arch()
    from repro.models import dscnn, micronets

    return {"kws-s": micronets.micronet_kws_s, "dscnn-s": dscnn.dscnn_s}[name]()


def _run_obs(args) -> int:
    """The ``repro obs`` report: per-op modeled-vs-measured timing table,
    cache statistics, and the full metrics/span dump."""
    from repro import obs
    from repro.hw import get_device
    from repro.models.spec import export_graph
    from repro.obs.bridge import collect_cache_stats, modeled_vs_measured, render_bridge_table

    obs.enable()
    if args.jsonl:
        obs.set_sink(args.jsonl)
    device = get_device(args.device)
    graph = export_graph(_obs_arch(args.arch), bits=8)
    rows = modeled_vs_measured(graph, device, repeats=args.repeats)
    print(render_bridge_table(rows, model=graph.name, device=device.name))
    print()
    collect_cache_stats()
    print(obs.report())
    if args.jsonl:
        sink = obs.REGISTRY.to_jsonl()
        with open(args.jsonl, "a") as handle:
            handle.write(sink + "\n")
        obs.set_sink(None)
        print(f"\nJSONL trace -> {args.jsonl}")
    return 0


def _search_run(
    seed: int, epochs: int, samples: int, checkpoint_path: str = None, resume: bool = True
) -> int:
    """A compact checkpointed DNAS run on synthetic KWS data.

    The supernet, data, and all RNG streams are derived deterministically
    from (seed, samples), so ``repro resume`` can rebuild an identical run
    from just the checkpoint's recorded settings.
    """
    from repro.datasets.speech_commands import make_kws_dataset
    from repro.nas.budgets import ResourceBudget
    from repro.nas.search import SearchConfig, search
    from repro.nas.supernet import DSCNNSupernet
    from repro.resilience.checkpoint import CheckpointConfig
    from repro.utils.rng import new_rng, spawn_rng

    rng = new_rng(seed)
    data = make_kws_dataset(samples, rng=spawn_rng(rng, "data"))
    supernet = DSCNNSupernet(
        input_shape=data.features.shape[1:],
        num_classes=12,
        stem_options=(8, 16),
        num_blocks=2,
        block_options=(8, 16),
        rng=spawn_rng(rng, "supernet"),
    )
    budget = ResourceBudget(params=60_000, activation_bytes=64_000, ops=4_000_000)
    config = SearchConfig(epochs=epochs, warmup_epochs=min(1, epochs - 1), batch_size=8)
    checkpoint = None
    if checkpoint_path:
        checkpoint = CheckpointConfig(
            path=checkpoint_path,
            resume=resume,
            metadata={"seed": seed, "epochs": epochs, "samples": samples},
        )
    result = search(
        supernet, data.features, data.labels, budget,
        config=config, rng=spawn_rng(rng, "search"), checkpoint=checkpoint,
    )
    print(f"extracted architecture: {result.arch.name}")
    for layer in result.arch.layers:
        print(f"  {layer}")
    print(f"expected params: {result.expected_params:.0f}")
    print(f"expected ops: {result.expected_ops:.0f}")
    print(f"expected memory: {result.expected_memory_bytes:.0f} bytes")
    print(f"loss history: {[round(v, 4) for v in result.history['loss']]}")
    if checkpoint_path:
        print(f"checkpoint -> {checkpoint_path}")
    return 0


def _fabric_search_run(
    seed: int,
    evaluations: int,
    workers: int,
    proxy: bool,
    checkpoint_path: str = None,
    resume: bool = True,
) -> int:
    """A black-box sweep on the distributed search fabric.

    Evolutionary search over a compact DS-CNN space with a real (tiny)
    training oracle; ``--workers N`` shards each generation across N forked
    workers, ``--proxy`` pre-screens generations with zero-cost scores.
    Like the DNAS path, the run is rebuilt deterministically from (seed,
    evaluations), so ``repro resume`` can continue it from the checkpoint's
    recorded settings alone.
    """
    from repro.nas.blackbox import DSCNNSearchSpace, EvolutionarySearch
    from repro.nas.budgets import ResourceBudget
    from repro.nas.fabric import MiniTaskOracle, run_sweep
    from repro.resilience.checkpoint import CheckpointConfig

    space = DSCNNSearchSpace(
        input_shape=(16, 8, 1), num_classes=4, width_options=(8, 16, 24),
        num_blocks=3, stem_kernel=(4, 4), stem_stride=(2, 2),
    )
    budget = ResourceBudget(params=60_000, activation_bytes=40_000, ops=4_000_000)
    searcher = EvolutionarySearch(
        space, budget, max_evaluations=evaluations, population_size=4,
        generation_size=4,
    )
    checkpoint = None
    if checkpoint_path:
        checkpoint = CheckpointConfig(
            path=checkpoint_path,
            resume=resume,
            metadata={
                "mode": "fabric", "seed": seed, "evaluations": evaluations,
                "workers": workers, "proxy": proxy,
            },
        )
    sweep = run_sweep(
        searcher,
        MiniTaskOracle(train_size=48, test_size=24, epochs=1, batch_size=16),
        rng=seed,
        workers=workers,
        proxy=True if proxy else None,
        checkpoint=checkpoint,
    )
    result = sweep.result
    print(
        f"fabric sweep: {result.evaluations} evaluations over "
        f"{sweep.generations} generations ({sweep.workers} worker(s))"
    )
    print(
        f"  proposed {result.proposed}, screened {result.screened}, "
        f"rejected {result.rejected_infeasible}, failures {len(result.failures)}"
    )
    if sweep.resumed:
        print(f"  resumed: replayed {sweep.replayed}, re-ran {sweep.evaluated}")
    if sweep.shared_cache_hits:
        print(f"  shared cache entries transferred: {sweep.shared_cache_hits}")
    print(f"best fitness: {result.best_fitness:.4f} ({result.best_arch.name})")
    print("pareto front (accuracy vs params/memory/ops):")
    for point in sweep.front:
        params, memory, ops = point.costs
        print(
            f"  {point.name:24s} acc={point.score:.4f} "
            f"params={params:.0f} mem={memory:.0f} ops={ops:.0f}"
        )
    if checkpoint_path:
        print(f"checkpoint -> {checkpoint_path}")
    return 0


def _run_validate(args) -> int:
    """The ``repro validate`` command: model-file validation + guardrails.

    Exit codes: 0 valid (and within budget, when ``--device`` is given),
    1 rejected (malformed file, broken graph, or budget overflow), 2 usage
    error (missing file / unknown device).
    """
    import os

    from repro.errors import DeploymentError, ReproError
    from repro.hw.devices import get_device
    from repro.runtime.reporting import memory_report
    from repro.runtime.serializer import deserialize
    from repro.validate import fuzz_model_bytes, validate_deployment

    if not os.path.exists(args.model):
        print(f"no such model file: {args.model}", file=sys.stderr)
        return 2
    devices = []
    for key in args.device or []:
        try:
            devices.append(get_device(key))
        except DeploymentError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    with open(args.model, "rb") as handle:
        buf = handle.read()

    try:
        graph = deserialize(buf)
    except ReproError as exc:
        print(f"REJECTED {args.model}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    memory = memory_report(graph)
    print(f"model {graph.name!r}: OK")
    print(f"  file          {len(buf)} bytes")
    print(f"  tensors/ops   {len(graph.tensors)} / {len(graph.ops)}")
    print(f"  peak SRAM     {memory.total_sram} bytes (arena {memory.arena_bytes})")
    print(f"  flash         {memory.total_flash} bytes (model {memory.model_flash_bytes})")

    failures = 0
    for device in devices:
        try:
            validate_deployment(graph, device, memory=memory)
        except DeploymentError as exc:
            failures += 1
            print(f"REJECTED for {device.name}: {exc}", file=sys.stderr)
        else:
            print(
                f"  fits {device.name} ({device.budget_summary()}): "
                f"SRAM margin {device.sram_bytes - memory.total_sram}, "
                f"flash margin {device.eflash_bytes - memory.total_flash}"
            )

    if args.fuzz:
        report = fuzz_model_bytes(buf, iterations=args.fuzz, seed=args.seed)
        print(f"  {report.summary()}")
        for escape in report.escapes[:10]:
            print(
                f"    ESCAPE mutant #{escape.index} ({escape.mutator}): "
                f"{escape.error_type}: {escape.message}",
                file=sys.stderr,
            )
        failures += len(report.escapes)

    return 1 if failures else 0


def _run_compile(args) -> int:
    """The ``repro compile`` command: optimize a .mbuf model file.

    Deserializes the model, runs the pass pipeline at ``--level``, prints
    the pass-by-pass rewrite summary plus the before/after memory map, and
    round-trips the compiled graph through the serializer (writing it out
    with ``-o``). Exit codes match ``repro validate``: 0 compiled, 1
    rejected (malformed file or a pass produced an invalid graph), 2 usage
    error.
    """
    import os

    from repro.errors import ReproError
    from repro.runtime.passes import canonical_level, compile_graph
    from repro.runtime.reporting import memory_report
    from repro.runtime.serializer import deserialize, serialize

    if not os.path.exists(args.model):
        print(f"no such model file: {args.model}", file=sys.stderr)
        return 2
    try:
        level = canonical_level(args.level)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    with open(args.model, "rb") as handle:
        buf = handle.read()

    try:
        graph = deserialize(buf)
        compiled = compile_graph(graph, level=level)
        # Round-trip: the compiled graph must survive serialization — the
        # .mbuf on flash is the deployment artifact, not the in-memory IR.
        out_buf = serialize(compiled.graph)
        deserialize(out_buf)
    except ReproError as exc:
        print(f"REJECTED {args.model}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    print(compiled.report.summary(verbose=not args.quiet))
    before = memory_report(graph)
    after = memory_report(compiled.graph)
    print(f"  file          {len(buf)} -> {len(out_buf)} bytes")
    print(f"  peak SRAM     {before.total_sram} -> {after.total_sram} bytes")
    print(f"  flash         {before.total_flash} -> {after.total_flash} bytes")
    if args.output:
        with open(args.output, "wb") as handle:
            handle.write(out_buf)
        print(f"compiled model -> {args.output}")
    return 0


def _run_serve_bench(args) -> int:
    """The ``repro serve-bench`` command: replay a synthetic traffic trace
    through the micro-batching server and print the latency table.

    Runs the same seeded trace twice (batched vs unbatched) under a
    deterministic FakeClock with a calibrated service-time model; exit 1
    when the replay violates request conservation.
    """
    import json

    from repro.errors import ReproError
    from repro.serve.bench import format_serving_latency, run_serving_latency_bench

    try:
        section = run_serving_latency_bench(
            mode=args.mode,
            requests=args.requests,
            max_batch=args.max_batch,
            seed=args.seed,
        )
    except ReproError as exc:
        print(f"serve-bench failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(format_serving_latency(section))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(section, handle, indent=2)
            handle.write("\n")
        print(f"serving_latency section -> {args.json}")
    if not section["conservation_ok"]:
        print("request conservation violated", file=sys.stderr)
        return 1
    return 0


def _run_chaos(args) -> int:
    """The ``repro chaos`` command: fault schedules vs the defenses.

    Replays the serving load trace under every shipped chaos schedule and
    runs the fabric dead/hung-worker drill, checking the survival
    invariants (conservation, bitwise survivors, bounded stalls, seeded
    replay, unique journal). Exit 0 when every invariant holds, 1 on any
    violation, 2 on a workload build failure.
    """
    import json
    import tempfile

    from repro.chaos import format_chaos_report, run_chaos_fabric, run_chaos_serve
    from repro.errors import ReproError

    try:
        serve = run_chaos_serve(mode=args.mode, seed=args.seed)
        fabric = None
        if not args.no_fabric:
            with tempfile.TemporaryDirectory() as tmp:
                fabric = run_chaos_fabric(
                    tmp, workers=args.workers, task_timeout_s=args.timeout
                )
    except ReproError as exc:
        print(f"chaos harness failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(format_chaos_report(serve, fabric))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"serve": serve, "fabric": fabric}, handle, indent=2)
            handle.write("\n")
        print(f"chaos report -> {args.json}")
    violations = list(serve["violations"]) + list(fabric["violations"] if fabric else [])
    if violations:
        print(f"{len(violations)} invariant violation(s)", file=sys.stderr)
        return 1
    return 0


def _run_spec(args) -> int:
    """The ``repro spec`` command: validate or run scenario spec files.

    Exit codes match ``repro validate``: 0 valid/ran, 1 rejected (the spec
    fails schema, cross-reference, or budget-feasibility validation), 2
    usage error (no such file or builtin spec name).
    """
    from repro.errors import ConfigError
    from repro.spec import (
        builtin_spec_paths,
        compile_scenario,
        load_scenario,
        resolve_spec_path,
        run_scenario,
    )

    path = resolve_spec_path(args.spec)
    if path is None:
        builtin = [p.rsplit("/", 1)[-1] for p in builtin_spec_paths()]
        print(
            f"no such spec file or builtin spec: {args.spec!r} "
            f"(builtin: {', '.join(builtin)})",
            file=sys.stderr,
        )
        return 2

    try:
        spec = load_scenario(path)
    except ConfigError as exc:
        print(f"REJECTED {path}:", file=sys.stderr)
        for line in str(exc).splitlines()[1:]:  # first line is the header
            print(f"  {line}", file=sys.stderr)
        return 1

    plan = compile_scenario(spec)
    if args.action == "validate":
        print(f"spec {path}: OK")
        print(plan.describe())
        return 0

    scale = resolve_scale(args.scale)
    for result in run_scenario(plan, scale=scale, rng=args.seed):
        print(format_table(result))
        print()
        if not args.no_save:
            out = save_result(result, scenario=spec.name)
            print(f"saved -> {out}\n")
    return 0


def _run_resume(args) -> int:
    """Continue an interrupted ``repro search`` run from its checkpoint.

    Dispatches on the checkpoint's recorded kind: ``dnas`` checkpoints
    restart the gradient search, ``fabric`` checkpoints restart the
    black-box sweep (journal replay included).
    """
    from repro.resilience.checkpoint import load_checkpoint

    snapshot = load_checkpoint(args.checkpoint)
    settings = snapshot.payload.get("user") or {}
    if snapshot.kind == "fabric":
        missing = [k for k in ("seed", "evaluations", "workers", "proxy") if k not in settings]
        if missing:
            print(
                f"checkpoint {args.checkpoint!r} lacks run settings {missing}; "
                "it was not written by 'repro search --workers'",
                file=sys.stderr,
            )
            return 2
        print(
            f"resuming fabric sweep from {args.checkpoint} "
            f"(generation {snapshot.payload['generations']})"
        )
        return _fabric_search_run(
            seed=int(settings["seed"]),
            evaluations=int(settings["evaluations"]),
            workers=int(settings["workers"]),
            proxy=bool(settings["proxy"]),
            checkpoint_path=args.checkpoint,
            resume=True,
        )
    if snapshot.kind != "dnas":
        print(
            f"checkpoint {args.checkpoint!r} holds a {snapshot.kind!r} run; "
            "'repro resume' handles 'dnas' and 'fabric' checkpoints",
            file=sys.stderr,
        )
        return 2
    missing = [k for k in ("seed", "epochs", "samples") if k not in settings]
    if missing:
        print(
            f"checkpoint {args.checkpoint!r} lacks run settings {missing}; "
            "it was not written by 'repro search'",
            file=sys.stderr,
        )
        return 2
    print(
        f"resuming from {args.checkpoint} "
        f"(epoch {snapshot.payload['epoch'] + 1}/{snapshot.payload['total_epochs']})"
    )
    return _search_run(
        seed=int(settings["seed"]),
        epochs=int(settings["epochs"]),
        samples=int(settings["samples"]),
        checkpoint_path=args.checkpoint,
        resume=True,
    )


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MicroNets reproduction — regenerate the paper's tables and figures.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run an experiment by id")
    run_parser.add_argument("experiment", help="experiment id, or 'all'")
    run_parser.add_argument("--scale", default=None, choices=["ci", "paper"])
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument("--no-save", action="store_true", help="do not archive results")
    obs_parser = subparsers.add_parser(
        "obs", help="observability report: modeled vs measured per-op timings"
    )
    obs_parser.add_argument(
        "--arch", default="tiny", choices=["tiny", "kws-s", "dscnn-s"],
        help="model to export and run through the interpreter",
    )
    obs_parser.add_argument("--device", default="STM32F446RE")
    obs_parser.add_argument("--repeats", type=int, default=3)
    obs_parser.add_argument("--jsonl", default=None, help="also write spans/metrics as JSONL")
    search_parser = subparsers.add_parser(
        "search", help="run a compact checkpointed DNAS search on synthetic KWS data"
    )
    search_parser.add_argument("--seed", type=int, default=0)
    search_parser.add_argument("--epochs", type=int, default=2)
    search_parser.add_argument("--samples", type=int, default=48, help="synthetic KWS samples")
    search_parser.add_argument(
        "--checkpoint", default=None, help="checkpoint path (.npz); enables snapshot+resume"
    )
    search_parser.add_argument(
        "--fresh", action="store_true",
        help="ignore an existing checkpoint instead of resuming from it",
    )
    search_parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run the black-box search fabric instead of DNAS, sharding each "
        "generation over N forked workers (0 = in-process; default from "
        "REPRO_FABRIC_WORKERS when --proxy is given)",
    )
    search_parser.add_argument(
        "--proxy", action="store_true",
        help="pre-screen each fabric generation with zero-cost proxies "
        "(implies the fabric sweep)",
    )
    search_parser.add_argument(
        "--evaluations", type=int, default=8, metavar="N",
        help="fabric sweep evaluation budget (fabric mode only)",
    )
    resume_parser = subparsers.add_parser(
        "resume", help="continue an interrupted 'repro search' run from its checkpoint"
    )
    resume_parser.add_argument("checkpoint", help="checkpoint written by 'repro search'")
    validate_parser = subparsers.add_parser(
        "validate", help="validate a .mbuf model file (format, graph invariants, budgets)"
    )
    validate_parser.add_argument("model", help="path to a serialized microbuffer model")
    validate_parser.add_argument(
        "--device", action="append", default=None, metavar="DEV",
        help="also enforce this device's SRAM/flash budgets (repeatable; name or S/M/L)",
    )
    validate_parser.add_argument(
        "--fuzz", type=int, default=0, metavar="N",
        help="additionally fuzz the deserializer with N seeded mutants of this model",
    )
    validate_parser.add_argument("--seed", type=int, default=0, help="fuzzing seed")
    compile_parser = subparsers.add_parser(
        "compile", help="optimize a .mbuf model with the graph compiler pass pipeline"
    )
    compile_parser.add_argument("model", help="path to a serialized microbuffer model")
    compile_parser.add_argument(
        "--level", default="O2", metavar="LVL",
        help="optimization level: O0 (none), O1 (dead code), O2 (full; default)",
    )
    compile_parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the compiled model to this path",
    )
    compile_parser.add_argument(
        "--quiet", action="store_true", help="omit the per-rewrite detail lines"
    )
    serve_parser = subparsers.add_parser(
        "serve-bench",
        help="replay a synthetic load trace through the micro-batching server",
    )
    serve_parser.add_argument(
        "--mode", default="ci", choices=["smoke", "ci", "paper"],
        help="workload preset (model size + default request count)",
    )
    serve_parser.add_argument(
        "--requests", type=int, default=None, metavar="N",
        help="override the preset's trace length",
    )
    serve_parser.add_argument("--max-batch", type=int, default=16, metavar="N")
    serve_parser.add_argument("--seed", type=int, default=0, help="trace seed")
    serve_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the serving_latency section as JSON",
    )

    spec_parser = subparsers.add_parser(
        "spec", help="validate or run a scenario spec file (YAML/JSON)"
    )
    spec_parser.add_argument(
        "action", choices=["validate", "run"],
        help="validate: schema/cross-reference/budget check only; run: "
        "compile and execute the scenario's experiments and fleets",
    )
    spec_parser.add_argument(
        "spec", help="path to a spec file, or a builtin spec name "
        "(e.g. table1_devices, fig7_kws_pareto, fleet_mixed)",
    )
    spec_parser.add_argument("--scale", default=None, choices=["ci", "paper"])
    spec_parser.add_argument("--seed", type=int, default=0)
    spec_parser.add_argument(
        "--no-save", action="store_true", help="do not archive results"
    )

    chaos_parser = subparsers.add_parser(
        "chaos",
        help="replay serve/fabric workloads under seeded fault schedules "
        "and check the survival invariants",
    )
    chaos_parser.add_argument(
        "--mode", default="smoke", choices=["smoke", "ci", "paper"],
        help="serve replay trace length preset",
    )
    chaos_parser.add_argument("--seed", type=int, default=0, help="trace seed")
    chaos_parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="fork-pool width for the fabric drill",
    )
    chaos_parser.add_argument(
        "--timeout", type=float, default=1.0, metavar="S",
        help="fabric per-task deadline in seconds",
    )
    chaos_parser.add_argument(
        "--no-fabric", action="store_true",
        help="skip the fabric drill (serve schedules only; no fork pools)",
    )
    chaos_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full chaos report as JSON",
    )

    args = parser.parse_args(argv)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "spec":
        return _run_spec(args)
    if args.command == "serve-bench":
        return _run_serve_bench(args)
    if args.command == "validate":
        return _run_validate(args)
    if args.command == "compile":
        return _run_compile(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "search":
        if args.workers is not None or args.proxy:
            import os

            workers = args.workers
            if workers is None:
                workers = int(os.environ.get("REPRO_FABRIC_WORKERS", "0"))
            return _fabric_search_run(
                seed=args.seed, evaluations=args.evaluations, workers=workers,
                proxy=args.proxy, checkpoint_path=args.checkpoint,
                resume=not args.fresh,
            )
        return _search_run(
            seed=args.seed, epochs=args.epochs, samples=args.samples,
            checkpoint_path=args.checkpoint, resume=not args.fresh,
        )
    if args.command == "resume":
        return _run_resume(args)
    if args.command == "list":
        for experiment_id, module in EXPERIMENTS.items():
            tag = " [heavy]" if experiment_id in HEAVY else ""
            print(f"{experiment_id:18s} {module}{tag}")
        return 0

    scale = resolve_scale(args.scale)
    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'python -m repro list'", file=sys.stderr)
        return 2
    for target in targets:
        _run_one(target, scale, args.seed, save=not args.no_save)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
