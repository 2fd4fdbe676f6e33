"""End-to-end benchmark of the MicroNets reproduction.

    python3 e2ebench/run.py --workload serve_float --seed 1 --seconds 30 --trace 0

Workloads: ``serve_float``, ``serve_int8`` (``serving.py``) and ``nas_sweep``
(``search.py``). ``--trace 0`` prints the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` runs the same workload with spans and the
program's ``repro.obs`` switch on and prints the per-layer metrics instead.
The last line of standard output is one JSON object; progress goes to
standard error. Run it from the repository root; it needs no install.
"""

from __future__ import annotations

import os

# One BLAS thread, fixed before numpy loads; fork-pool workers inherit it.
# With one thread per core on a 2-vCPU VM, float serving processes fell into
# one of two allocator modes whose throughput differed by about a quarter.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("serve_float", "serve_int8", "nas_sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _declared_metrics(tracing: bool):
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["per_layer" if tracing else "end_to_end"]


def _selftests_pass() -> bool:
    import unittest

    import selftest

    suite = unittest.defaultTestLoader.loadTestsFromModule(selftest)
    with open(os.devnull, "w") as quiet:
        return unittest.TextTestRunner(stream=quiet, verbosity=0).run(suite).wasSuccessful()


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program at {SRC}/repro; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    tracing = bool(args.trace)
    if args.workload == "nas_sweep":
        import search as workload
    else:
        import serving as workload
    from common import OUT_DIR, log

    outcome = workload.run(args.workload, args.seed, args.seconds, tracing)
    problems = list(outcome["problems"])
    if not _selftests_pass():
        problems.append("the reference self-tests failed")
    for problem in problems:
        log(f"check failed: {problem}")
    if tracing:
        outcome["tracer"].write(
            os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl"))

    measured = outcome["layer"] if tracing else outcome["metrics"]
    metrics = {}
    for declared in _declared_metrics(tracing):
        name, unit = declared["name"], declared["unit"]
        if name in measured:
            value, measured_unit = measured[name]
            if measured_unit != unit:
                raise ValueError(f"{name}: measured in {measured_unit}, declared {unit}")
        elif tracing:
            value = 0  # this layer is not on the workload's path
        else:
            raise KeyError(f"{args.workload} measured no {name}")
        metrics[name] = {"value": value, "unit": unit}
    unknown = sorted(set(measured) - set(metrics))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:  # no result line: the run did not complete
        traceback.print_exc()
        sys.exit(1)
