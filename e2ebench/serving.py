"""Serving workloads: three MicroNets on one ModelServer on the real clock.

``serve_float`` exports the models float; ``serve_int8`` quantizes them
with a seeded calibration batch. Each run then alternates, for a fixed
number of rounds, two phases:

* burst — a fixed backlog submitted at once and drained;
* steady — a seeded open-loop Poisson mix at a fixed rate, each request
  timed from its due time in the schedule to its response's finish.

Latency percentiles pool every steady window; throughput is the median
over the bursts, so a stall from outside the process that hits one burst
does not move it.

Every response is then checked against the benchmark's own forward passes
(``reference.py``), once per distinct (model, payload).
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from common import Tracer, log, minor_faults, peak_rss_mb, percentile, ratio, wrap_callable
from reference import float_forward, float_matches, int8_forward


@dataclass(frozen=True)
class ServeConfig:
    bits: Optional[int]  #: None exports float; 8 quantizes
    steady_rate: float  #: requests/s over all tenants, fixed (never recalibrated)
    nominal_burst_ips: float  #: sizes the backlog; today's capacity, fixed
    max_wait_s: float  #: the tenants' coalescing window
    steady_share: float  #: share of ``--seconds`` in steady windows; bursts get the rest
    overhead_requests: int  #: per tenant and round, traced-run overhead probe


CONFIGS = {
    # Float bursts drain at about 520-600 inferences/s on a 2-vCPU VM; the
    # steady rate is about a quarter of that. At 230/s, queueing behind other
    # tenants' dispatches amplified the VM's speed swings into a 0.2 quartile
    # spread of the median latency between runs.
    "serve_float": ServeConfig(bits=None, steady_rate=150.0, nominal_burst_ips=520.0,
                               max_wait_s=0.005, steady_share=0.5,
                               overhead_requests=32),
    # int8 drains at about 45 inferences/s in large batches, but one sample
    # alone takes 35-90 ms, so its tenants wait up to 50 ms for company. At
    # 8 requests/s and a 5 ms window, queueing behind other tenants' batches
    # amplified the VM's speed swings into a 30% median-to-median spread.
    "serve_int8": ServeConfig(bits=8, steady_rate=6.0, nominal_burst_ips=45.0,
                              max_wait_s=0.05, steady_share=0.7,
                              overhead_requests=4),
}

MAX_BATCH = 128
#: Burst + steady window pairs per run.
ROUNDS = 6
#: Far above any latency seen today, so nothing sheds when all goes well.
DEADLINE_S = 120.0
QUEUE_DEPTH = 1_000_000
PAYLOADS_PER_MODEL = 32
CALIBRATION_SAMPLES = 32
#: Relative tolerance of float outputs, against each output's own scale.
FLOAT_RTOL = 1e-4


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


class _Run:
    """Bookkeeping for one serving run: every request the benchmark sent."""

    def __init__(self) -> None:
        self.tenant: List[int] = []
        self.payload: List[int] = []
        self.due: List[float] = []
        self.request_id: List[int] = []
        self.responses: Dict[int, list] = {}  # tag -> responses received
        self.steady_tags: List[int] = []

    def add(self, tenant: int, payload: int, due: float) -> int:
        self.tenant.append(tenant)
        self.payload.append(payload)
        self.due.append(due)
        self.request_id.append(-1)
        return len(self.tenant) - 1

    def collect(self, responses) -> List[int]:
        for response in responses:
            self.responses.setdefault(response.tag, []).append(response)
        return [r.request_id for r in responses]


def run(workload: str, seed: int, seconds: float, tracing: bool) -> Dict:
    import repro.obs as obs
    from repro.models.micronets import micronet_ad_s, micronet_kws_s, micronet_vww_s
    from repro.models.spec import export_float_graph, quantize_graph
    from repro.runtime.serializer import serialize
    from repro.serve import ModelServer, MonotonicClock, TenantConfig

    from common import seconds_since_process_start

    config = CONFIGS[workload]
    tracer = Tracer()
    if tracing:
        _install_wrappers(tracer)
        obs.enable()
        tracer.active = True

    # --- set-up: export, (quantize), serialize, register ---------------
    archs = [micronet_kws_s(), micronet_ad_s(), micronet_vww_s()]
    graphs, buffers = [], []
    for index, arch in enumerate(archs):
        graph = export_float_graph(arch)
        if config.bits is not None:
            calibration = _stream(seed, 1, index).standard_normal(
                (CALIBRATION_SAMPLES, *arch.input_shape)).astype(np.float32)
            graph = quantize_graph(graph, calibration=calibration, bits=config.bits)
        graphs.append(graph)
        buffers.append(serialize(graph))
    server = ModelServer(clock=MonotonicClock())
    tenant = TenantConfig(max_batch=MAX_BATCH, max_wait_s=config.max_wait_s,
                          queue_depth=QUEUE_DEPTH, default_deadline_s=DEADLINE_S)
    digests = []
    for index, buf in enumerate(buffers):
        with tracer.span("serve.register", model=archs[index].name):
            digests.append(server.register(buf, tenant))
    setup_s = seconds_since_process_start()
    log(f"{workload}: set-up {setup_s:.3f} s")

    # --- inputs ---------------------------------------------------------
    pools = [
        _stream(seed, 2, index).standard_normal(
            (PAYLOADS_PER_MODEL, *arch.input_shape)).astype(np.float32)
        for index, arch in enumerate(archs)
    ]
    book = _Run()
    clock = server.clock
    window_s = config.steady_share * seconds / ROUNDS
    # Each burst's backlog takes about the rest of the time at the nominal rate.
    per_tenant = max(1, int(round(config.nominal_burst_ips * (1.0 - config.steady_share)
                                  * seconds / ROUNDS / len(archs))))

    def submit(tag: int) -> None:
        t, p = book.tenant[tag], book.payload[tag]
        with tracer.span("serve.submit", tag=tag) as span:
            book.request_id[tag] = server.submit(digests[t], pools[t][p], tag=tag)
        if tracer.active:
            span.attrs["request"] = book.request_id[tag]

    phases = {"steady": _Phase(), "burst": _Phase()}
    workspace = _workspace_counts()
    first_span = len(tracer.spans)
    lag: List[float] = []
    windows: List[List[float]] = []  # steady latencies (ms), one list per round
    burst_ips: List[float] = []
    for round_index in range(ROUNDS):
        # --- burst: a backlog submitted at once, drained ------------------
        # Tenants take turns in a fixed order, and the first burst comes before
        # any steady window: the process's peak resident set is reached in that
        # burst, so it depends on the allocation order, not on the seed.
        tenants = np.tile(np.arange(len(archs)), per_tenant)
        payloads = _stream(seed, 4, round_index).integers(0, PAYLOADS_PER_MODEL,
                                                          size=len(tenants))
        phases["burst"].begin(server, tracer, "burst")
        burst_start = clock.now()
        tags = [book.add(int(t), int(p), burst_start) for t, p in zip(tenants, payloads)]
        for tag in tags:
            submit(tag)
        with tracer.span("serve.run_until_idle") as span:
            server.run_until_idle()
        burst_ips.append(len(tags) / (clock.now() - burst_start))
        phases["burst"].end(server)
        completed = book.collect(server.drain())
        if tracer.active:
            span.attrs["requests"] = completed
        # --- steady window: open loop on the real clock --------------------
        # A Poisson process conditioned on its expected count (arrival times
        # are sorted uniforms), the tenants taking equal shares in a seeded
        # order: every seed offers each window the same load and mix.
        rng = _stream(seed, 3, round_index)
        count = int(round(config.steady_rate * window_s))
        offsets = np.sort(rng.uniform(0.0, window_s, size=count))
        tenants = rng.permutation(np.resize(np.arange(len(archs)), count))
        payloads = rng.integers(0, PAYLOADS_PER_MODEL, size=count)
        phases["steady"].begin(server, tracer, "steady")
        start = clock.now() + 0.02
        tags = [book.add(int(t), int(p), start + float(o))
                for t, p, o in zip(tenants, payloads, offsets)]
        cursor = 0
        while True:
            now = clock.now()
            while cursor < len(tags) and book.due[tags[cursor]] <= now:
                lag.append(now - book.due[tags[cursor]])
                submit(tags[cursor])
                cursor += 1
                now = clock.now()
            with tracer.span("serve.poll") as span:
                server.poll()
            completed = book.collect(server.drain())
            if tracer.active and completed:
                span.attrs["requests"] = completed
            if cursor >= len(tags) and server.queued() == 0:
                break
            wake = server.next_wake()
            target = book.due[tags[cursor]] if cursor < len(tags) else float("inf")
            if wake is not None:
                target = min(target, wake)
            delay = target - clock.now()
            if delay > 0:
                time.sleep(delay)
        phases["steady"].end(server)
        windows.append([(book.responses[t][0].finish_s - book.due[t]) * 1e3 for t in tags
                        if len(book.responses.get(t, ())) == 1 and book.responses[t][0].ok])
        book.steady_tags += tags

    workspace_after = _workspace_counts()
    rss_mb = peak_rss_mb()
    last_span = len(tracer.spans)
    op_totals = _op_totals(obs) if tracing else {}

    # Every round counts: latency pools all steady windows, so a stall also
    # charges the requests it delayed; throughput is the median burst.
    latency = [v for window in windows for v in window]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (percentile(latency, 50), "ms"),
        "latency_p90_ms": (percentile(latency, 90), "ms"),
        "throughput_per_s": (statistics.median(burst_ips), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    log(f"{workload}: {ROUNDS} rounds; steady {len(latency)} requests, window p50 "
        f"{_fmt([percentile(w, 50) for w in windows])} ms, p99 "
        f"{percentile(latency, 99):.2f} ms; bursts of {per_tenant * len(archs)}: "
        f"{_fmt(burst_ips)}/s; rss {rss_mb:.0f} MB")

    layer: Dict = {}
    if tracing:
        overhead = _trace_overhead(server, digests, pools, book, tracer, obs, submit,
                                   config.overhead_requests)
        layer = _layer_metrics(tracer, archs, book, lag, phases, first_span, last_span,
                               workspace, workspace_after, op_totals, overhead)
        tracer.active = False
        obs.disable()

    # --- checks (after the timed phases) --------------------------------
    failed, problems = _check(book, server, graphs, pools, config, tracer if tracing else None)
    return {
        "attempted": len(book.tenant),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "layer": layer,
        "tracer": tracer,
    }


def _fmt(values: List[float]) -> str:
    return "/".join(f"{v:.1f}" for v in values)


class _Phase:
    """Server counters and minor faults summed over one phase's windows."""

    def __init__(self) -> None:
        self.completed = self.dispatches = self.faults = 0
        self._start = None

    def begin(self, server, tracer: Tracer, name: str) -> None:
        tracer.phase = name
        self._start = (server.stats.completed, server.stats.dispatches, minor_faults())

    def end(self, server) -> None:
        completed, dispatches, faults = self._start
        self.completed += server.stats.completed - completed
        self.dispatches += server.stats.dispatches - dispatches
        self.faults += minor_faults() - faults


# ----------------------------------------------------------------------
def _workspace_counts():
    from repro.tensor.gemm import default_workspace

    workspace = default_workspace()
    return workspace.reuses, workspace.allocations


def _op_totals(obs) -> Dict[str, float]:
    prefix = "interpreter.op_seconds."
    return {name[len(prefix):]: h.total for name, h in obs.REGISTRY.histograms.items()
            if name.startswith(prefix)}


def _install_wrappers(tracer: Tracer) -> None:
    """Spans around the program's layers, for the traced run only."""
    import repro.quantization.kernels as qkernels
    import repro.serve.pool as pool
    import repro.serve.registry as registry
    import repro.validate as validate
    import repro.validate.checks as checks
    from repro.runtime import interpreter
    from repro.runtime.interpreter import Interpreter

    wrap_callable(tracer, registry, "deserialize", "runtime.deserialize")
    wrap_callable(tracer, registry, "compile_graph", "runtime.compile")
    wrap_callable(tracer, pool, "plan_arena", "runtime.plan")
    wrap_callable(tracer, interpreter, "plan_arena", "runtime.plan")
    wrap_callable(tracer, checks, "validate_graph", "validate.graph")
    validate.validate_graph = checks.validate_graph
    wrap_callable(tracer, qkernels, "requantize", "quantization.requantize")
    original = Interpreter.invoke

    def invoke(self, batch):
        tracer.calls["runtime.invoke"] += 1
        if not tracer.active:
            return original(self, batch)
        with tracer.span("runtime.invoke", model=self.graph.name, batch=len(batch)) as span:
            out = original(self, batch)
        span.attrs["op_s"] = sum(self.last_op_timings.values())
        return out

    Interpreter.invoke = invoke


def _trace_overhead(server, digests, pools, book, tracer, obs, submit, per_tenant) -> float:
    """Traced over untraced wall time of the same small drains, alternated."""
    totals = {True: 0.0, False: 0.0}
    tracer.phase = "probe"
    for traced in (False, True, True, False, False, True):
        tracer.active = traced
        (obs.enable if traced else obs.disable)()
        tags = [book.add(t, p, 0.0)
                for p in range(per_tenant) for t in range(len(digests))]
        start = time.perf_counter()
        for tag in tags:
            submit(tag)
        server.run_until_idle()
        totals[traced] += time.perf_counter() - start
        book.collect(server.drain())
    tracer.active = True
    obs.enable()
    return totals[True] / totals[False]


def _layer_metrics(tracer, archs, book, lag, phases, first_span, last_span,
                   workspace, workspace_after, op_totals, overhead) -> Dict:
    models = len(archs)
    steady, burst = phases["steady"], phases["burst"]
    invokes = [s for s in tracer.named("runtime.invoke", first_span) if s.id < last_span]
    steady_invoke_s = sum(s.duration for s in invokes if s.attrs["phase"] == "steady")
    burst_invoke_s = sum(s.duration for s in invokes if s.attrs["phase"] == "burst")
    inferences = steady.completed + burst.completed
    queue_wait = [book.responses[t][0].queue_s * 1e3 for t in book.steady_tags
                  if len(book.responses.get(t, ())) == 1 and book.responses[t][0].ok]
    drains = [s for s in tracer.named("serve.run_until_idle", first_span) if s.id < last_span]
    requantize_s = sum(s.duration for s in tracer.named("quantization.requantize", first_span)
                       if s.id < last_span)
    reuses = workspace_after[0] - workspace[0]
    takes = reuses + workspace_after[1] - workspace[1]
    from repro.tensor.gemm import default_workspace

    metrics = {
        "serve.register_ms": (tracer.total("serve.register") * 1e3 / models, "ms"),
        "serve.queue_wait_ms_p50": (percentile(queue_wait, 50), "ms"),
        "serve.generator_lag_ms_p90": (percentile(lag, 90) * 1e3, "ms"),
        "serve.batch_size_mean.steady": (ratio(steady.completed, steady.dispatches),
                                         "req/dispatch"),
        "serve.batch_size_mean.burst": (ratio(burst.completed, burst.dispatches),
                                        "req/dispatch"),
        "serve.scheduler_s.burst": (sum(s.self_time for s in drains), "s"),
        "serve.dispatches": (steady.dispatches + burst.dispatches, "count"),
        "runtime.deserialize_ms": (tracer.total("runtime.deserialize", self_time=True) * 1e3
                                   / models, "ms"),
        "runtime.compile_ms": (tracer.total("runtime.compile", self_time=True) * 1e3 / models,
                               "ms"),
        "runtime.plan_ms": (tracer.total("runtime.plan", self_time=True) * 1e3 / models, "ms"),
        "runtime.invoke_ms_per_inf.steady": (ratio(steady_invoke_s * 1e3, steady.completed),
                                             "ms"),
        "runtime.invoke_ms_per_inf.burst": (ratio(burst_invoke_s * 1e3, burst.completed), "ms"),
        "runtime.invoke_self_ms_per_dispatch": (
            ratio(sum(s.duration - s.attrs["op_s"] for s in invokes) * 1e3, len(invokes)), "ms"),
        "runtime.minor_faults_per_inf": (ratio(burst.faults, burst.completed), "faults/inf"),
        "validate.graph_ms": (tracer.total("validate.graph", self_time=True) * 1e3 / models,
                              "ms"),
        "tensor.workspace_reuse_rate": (ratio(reuses, takes), "ratio"),
        "tensor.workspace_pooled_mb": (default_workspace().pooled_bytes() / 2 ** 20, "MB"),
        "quantization.requantize_ms_per_inf": (ratio(requantize_s * 1e3, inferences), "ms"),
        "obs.trace_overhead_ratio": (overhead, "ratio"),
        "obs.op_time_coverage": (ratio(sum(op_totals.values()),
                                       sum(s.duration for s in invokes)), "ratio"),
    }
    for kind in ("conv2d", "depthwise_conv2d", "dense", "global_avg_pool", "add"):
        metrics[f"runtime.op_ms_per_inf.{kind}"] = (
            ratio(op_totals.get(kind, 0.0) * 1e3, inferences), "ms")
    if metrics["obs.op_time_coverage"][0] < 0.95:
        log(f"note: per-op times cover {metrics['obs.op_time_coverage'][0]:.3f} of invoke time")
    return metrics


def _check(book: _Run, server, graphs, pools, config: ServeConfig,
           tracer: Optional[Tracer]):
    """(failed operations, problems that make the run incorrect)."""
    problems: List[str] = []
    failed = 0
    stats = server.stats
    received = sum(len(v) for v in book.responses.values())
    if not (received == stats.submitted == stats.completed + stats.shed_total):
        problems.append(f"responses {received}, submitted {stats.submitted}, completed "
                        f"{stats.completed} + shed {stats.shed_total} disagree")
    if stats.submitted != len(book.tenant):
        problems.append(f"server counted {stats.submitted} submits, benchmark sent "
                        f"{len(book.tenant)}")
    if tracer is not None:
        invokes = tracer.calls["runtime.invoke"]
        if invokes != stats.dispatches:
            problems.append(f"ServerStats.dispatches {stats.dispatches} != {invokes} "
                            f"invoke calls seen")

    good: List[int] = []
    lost = 0
    for tag in range(len(book.tenant)):
        got = book.responses.get(tag, [])
        if len(got) != 1 or got[0].request_id != book.request_id[tag]:
            lost += 1
        elif not got[0].ok:
            failed += 1  # shed: a failed operation, not a wrong answer
        else:
            good.append(tag)
    if lost:
        failed += lost
        problems.append(f"{lost} requests missing or answered more than once")

    # References: once per distinct (model, payload), after the timed phases.
    wrong = 0
    exact = config.bits is not None
    for model, graph in enumerate(graphs):
        tags = [t for t in good if book.tenant[t] == model]
        used = sorted({book.payload[t] for t in tags})
        if not used:
            continue
        batch = pools[model][used]
        reference = int8_forward(graph, batch) if exact else float_forward(graph, batch)
        row = {p: i for i, p in enumerate(used)}
        first: Dict[int, np.ndarray] = {}
        for tag in tags:
            output = book.responses[tag][0].output
            expected = reference[row[book.payload[tag]]]
            if exact:
                ok = output.dtype == expected.dtype and np.array_equal(output, expected)
                seen = first.setdefault(book.payload[tag], output)
                ok = ok and seen.tobytes() == output.tobytes()
            else:
                ok = float_matches(output, expected, FLOAT_RTOL)
            if not ok:
                wrong += 1
    if wrong:
        failed += wrong
        problems.append(f"{wrong} outputs differ from the reference forward pass")
    return failed, problems
