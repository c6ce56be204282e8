#!/usr/bin/env python3
"""Run one pluckerlab benchmark workload and print its metrics.

    python3 bench/run.py --workload classify --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The run is a single-threaded closed loop:
each case starts when the previous one has finished, and the whole case list
(one round, at least ``MIN_CASES`` cases) is repeated until ``--seconds``
have passed and at least ``MIN_ROUNDS`` rounds have run.  Every case is
checked exactly against its expected result, and every round must give the
same outputs as the first.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics instead (see
``tracing.py``), plus two field-op microbenchmarks.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record, with
provenance and digests, goes to ``bench/results/``.  The exit code is 0 only
when the run is correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import timeit
from pathlib import Path
from time import perf_counter

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 0
MIN_CASES = 100  # cases in a round: the 90th percentile has ten or more beyond it
MIN_ROUNDS = 3  # runs of each case that its fastest run is taken from
SETUP_REPEATS = 3

# Tangent-system and Kronecker-route shapes; others add up under "other".
RANK_SHAPES = ("45x45", "252x252", "495x495", "1485x1485")

END_TO_END = {
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "scalars.mat_rank.calls": "count",
    "scalars.mat_rank.self_s": "s",
    "scalars.mat_rank.cells": "count",
    **{f"scalars.mat_rank.{shape}.self_s": "s" for shape in RANK_SHAPES + ("other",)},
    "scalars.mat_det.calls": "count",
    "scalars.mat_det.self_s": "s",
    "scalars.poly_interpolate.self_s": "s",
    "scalars.fp_muladd_ns": "ns",
    "scalars.q_muladd_ns": "ns",
    "exterior.wedge.calls": "count",
    "exterior.wedge.self_s": "s",
    "exterior.wedge.pairs": "count",
    "exterior.wedge_matrix.calls": "count",
    "exterior.wedge_matrix.self_s": "s",
    "exterior.top_wedge_coefficient.self_s": "s",
    "plucker_form.build_tangent_system.calls": "count",
    "plucker_form.build_tangent_system.self_s": "s",
    "plucker_form.build_tangent_system.cells": "count",
    "plucker_form.multiplicity_at.self_s": "s",
    "plucker_form.polar.self_s": "s",
    "grassmann.classify_membership.calls": "count",
    "grassmann.classify_membership.self_s": "s",
    "grassmann.tangent_route_frac": "frac",
    "bundle_pairs_p1.evaluation_matrix.self_s": "s",
    "bundle_pairs_p1.divisor_value.calls": "count",
    "bundle_pairs_p1.classify_point.self_s": "s",
    "bench.case_s": "s",
    "bench.residue_s": "s",
    "trace.overhead_frac": "frac",
}


def import_library() -> float:
    """Import the library from this checkout's ``src``; returns the seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = perf_counter()
    try:
        import pluckerlab  # noqa: F401
        import workloads  # noqa: F401  (imports every layer module)
    except ImportError as exc:
        sys.exit(f"bench: cannot import pluckerlab from {src}: {exc}")
    elapsed = perf_counter() - start
    if Path(pluckerlab.__file__).resolve().parent.parent != src:
        sys.exit(f"bench: pluckerlab was imported from {pluckerlab.__file__}, not {src}")
    return elapsed


def clear_library_caches() -> None:
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "pluckerlab":
            for obj in vars(module).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


def set_up(name: str, seed: int):
    """Generate inputs and expected results from cold library caches, then
    warm the caches; repeated so that the median set-up time is reported."""
    import workloads

    runs = []
    for _ in range(SETUP_REPEATS):
        clear_library_caches()
        start = perf_counter()
        workload = workloads.BUILDERS[name](seed)
        input_digest = workload.input_digest()
        for case in workload.warmup:
            case.call()
        runs.append((perf_counter() - start, workload, input_digest))
    if len({d for _, _, d in runs}) != 1:
        sys.exit("bench: the same seed generated different inputs")
    return [t for t, _, _ in runs], runs[-1][1], runs[-1][2]


class Loop:
    """Runs rounds of cases and keeps the tallies of the whole run."""

    def __init__(self, cases):
        self.cases = cases
        self.first_outputs = None
        self.attempted = 0
        self.failures: list = []

    def round(self, tracer=None) -> list:
        """Run every case once; returns the case times in seconds."""
        times, outputs = [], []
        for i, case in enumerate(self.cases):
            start = perf_counter()
            try:
                result = case.call() if tracer is None else tracer.call(tracing.CASE, case.call)
            except Exception as exc:  # a case that raises counts as failed
                times.append(perf_counter() - start)
                ok, out = False, f"raised {type(exc).__name__}: {exc}"
            else:
                times.append(perf_counter() - start)
                ok, out = case.verify(result)
            self.attempted += 1
            if self.first_outputs is not None and out != self.first_outputs[i]:
                ok = False
            if not ok:
                self.failures.append({"case": i, "group": case.group, "output": out})
            outputs.append(out)
        if self.first_outputs is None:
            self.first_outputs = outputs
        return times


def measure(loop: Loop, seconds: float) -> dict:
    """End-to-end metrics from each case's fastest run.

    On a shared virtual machine, other tenants of the host can slow a run
    down by up to a factor of two for seconds at a time; a case's fastest run
    over the whole loop filters that out far better than its mean or median.
    """
    rounds = []
    start = perf_counter()
    while perf_counter() - start < seconds or len(rounds) < MIN_ROUNDS:
        rounds.append(loop.round())
    best = [min(runs) for runs in zip(*rounds)]
    return {
        "cases_per_s": len(best) / sum(best),
        "case_p50_ms": statistics.median(best) * 1e3,
        "case_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
    }


def muladd_ns(field, repeats: int = 7, number: int = 20000) -> float:
    """Median time of one ``a * b + c`` on elements drawn by ``field.sample``."""
    rng = random.Random(0)
    env = {"a": field.sample(rng), "b": field.sample(rng), "c": field.sample(rng)}
    runs = timeit.Timer("a * b + c", globals=env).repeat(repeat=repeats, number=number)
    return statistics.median(runs) / number * 1e9


def measure_traced(loop: Loop, seconds: float) -> dict:
    import workloads
    from pluckerlab import scalars

    tracer = tracing.Tracer()
    ratios = []  # traced over untraced case time, one per pair of rounds
    start = perf_counter()
    while not ratios or perf_counter() - start < seconds:
        untraced = loop.round()
        tracer.install([workloads])
        try:
            traced = loop.round(tracer)
        finally:
            tracer.uninstall()
        ratios.append(sum(traced) / sum(untraced))
    rounds = len(ratios)
    summary = tracing.summarize(tracer.spans, rounds)
    self_s, calls, sizes = summary["self_s"], summary["calls"], summary["sizes"]
    metrics = {
        f"{layer}.self_s": sum(t for n, t in self_s.items() if n.startswith(layer + "."))
        for layer in tracing.LAYERS
    }
    rank_shapes = {shape: t for (name, shape), t in summary["shape_self_s"].items()
                   if name == "scalars.mat_rank"}
    for shape in RANK_SHAPES:
        metrics[f"scalars.mat_rank.{shape}.self_s"] = rank_shapes.pop(shape, 0.0)
    metrics["scalars.mat_rank.other.self_s"] = sum(rank_shapes.values(), 0.0)
    for metric in PER_LAYER.keys() - metrics.keys():
        head, _, stat = metric.rpartition(".")
        if stat == "self_s":
            metrics[metric] = self_s.get(head, 0.0)
        elif stat == "calls":
            metrics[metric] = round(calls.get(head, 0))
        elif stat in ("cells", "pairs"):
            metrics[metric] = round(sizes.get(head, 0))
    metrics["bench.case_s"] = summary["case_s"]
    metrics["bench.residue_s"] = self_s.get(tracing.CASE, 0.0)
    metrics["grassmann.tangent_route_frac"] = summary["tangent_route_frac"]
    metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
    metrics["scalars.fp_muladd_ns"] = muladd_ns(scalars.PrimeField())
    metrics["scalars.q_muladd_ns"] = muladd_ns(scalars.QQ)
    return metrics


def git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["classify", "wedge_form", "p1_divisor"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    import_s = import_library()
    import numpy
    import workloads
    from pluckerlab import scalars

    setup_runs, workload, input_digest = set_up(args.workload, args.seed)
    if len(workload.cases) < MIN_CASES:
        sys.exit(f"bench: {args.workload} has fewer than {MIN_CASES} cases in a round")
    loop = Loop(workload.cases)
    if args.trace:
        metrics = measure_traced(loop, args.seconds)
    else:
        metrics = measure(loop, args.seconds)
        metrics["setup_s"] = import_s + statistics.median(setup_runs)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}

    digests = {
        "inputs": input_digest,
        "outputs": workloads.digest("\n".join(loop.first_outputs)),
    }
    recorded = json.loads((BENCH_DIR / "digests.json").read_text())
    digest_ok = args.seed != DEFAULT_SEED or recorded.get(args.workload) == digests
    correct = not loop.failures and digest_ok

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "provenance": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(),
            "prime": scalars.DEFAULT_PRIME,
        },
        "setup": {"import_s": import_s, "runs_s": setup_runs},
        "cases_per_round": len(workload.cases),
        "digests": digests,
        "digests_match_recorded": None if args.seed != DEFAULT_SEED else digest_ok,
        "failures": loop.failures[:20],
        "correct": correct,
        "attempted": loop.attempted,
        "failed": len(loop.failures),
        "metrics": metrics,
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    if not digest_ok:
        print(f"bench: digests {digests} differ from bench/digests.json", file=sys.stderr)
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
