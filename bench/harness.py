"""Closed-loop benchmark of the ``transversals`` command line.

One client in one process cycles through the workload's instance kinds
until the timed work reaches the run length.  Each instance is generated
from the run's seed and runs through the workload's CLI commands, one at a
time, in-process.  Only the commands are timed; output checks and digests
run between them.

An untraced run reports the end-to-end metrics.  A traced run runs every
instance twice, untraced and then traced, and reports per-layer metrics from
the traced pass, the tracing overhead, and a failure for any report or
stdout byte that differs between the two passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import pipelines
import tracing
from pipelines import COMMANDS, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

# Set-up is measured by starting this many fresh interpreters that import
# everything the benchmark imports; the median is reported.
SETUP_PROBES = 9
_PROBE = "import sys; sys.path[:0] = sys.argv[1:3]; import harness; print('ready', flush=True)"

# The i-th instance of a kind in a run is generated with seed * _SEED_STRIDE + i.
_SEED_STRIDE = 100_000

END_TO_END = {
    "instances_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Seconds per instance in each command; printed for the commands a
# workload runs and reported per layer in traced runs.
COMMAND_UNIT = "s/instance"


def _per_layer_units():
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s/instance"
        units[f"{layer}.self_share"] = "share"
    for name, unit in (
        ("exactla.standard_form_feasible.calls", "count/instance"),
        ("exactla.standard_form_feasible.self_s", "s/instance"),
        ("exactla.standard_form_feasible.cells", "count/instance"),
        ("exactla.standard_form_feasible.infeasible_share", "share"),
        ("exactla.standard_form_feasible.max_bits", "bits"),
        ("exactla.lp_feasible.calls", "count/instance"),
        ("exactla.lp_feasible.self_s", "s/instance"),
        ("exactla.strict_separation.calls", "count/instance"),
        ("exactla.strict_separation.s", "s/instance"),
        ("exactla.positive_functional.calls", "count/instance"),
        ("exactla.positive_functional.self_s", "s/instance"),
        ("exactla.rank.calls", "count/instance"),
        ("exactla.rank.self_s", "s/instance"),
        ("exactla.solve_linear.calls", "count/instance"),
        ("exactla.solve_linear.self_s", "s/instance"),
        ("convex.common_point.calls", "count/instance"),
        ("convex.common_point.self_s", "s/instance"),
        ("transversal.check_colorful.calls", "count/instance"),
        ("transversal.check_colorful.s", "s/instance"),
        ("transversal.k_transversal.calls", "count/instance"),
        ("transversal.k_transversal.s", "s/instance"),
        ("transversal.k_transversal.lp_per_call", "count/call"),
        ("generators.gen_counterexample.calls", "count/instance"),
        ("generators.gen_counterexample.s", "s/instance"),
        ("generators.tries_per_instance", "count/instance"),
        ("certificate.assign_normals.calls", "count/instance"),
        ("certificate.assign_normals.self_s", "s/instance"),
        ("certificate.build_chain_complex.s", "s/instance"),
        ("certificate.build_join.s", "s/instance"),
        ("certificate.verify_claim.self_s", "s/instance"),
        ("certificate.simplices_per_s", "1/s"),
        ("certificate.origin_in_hull.calls", "count/instance"),
        ("certificate.origin_in_hull.s", "s/instance"),
        ("cli.load_instance.calls", "count/instance"),
        ("cli.load_instance.s", "s/instance"),
        ("cli.atomic_write.calls", "count/instance"),
        ("cli.atomic_write.s", "s/instance"),
        ("cli.atomic_write.bytes", "B/instance"),
        ("cli.stdout_bytes", "B/instance"),
    ):
        units[name] = unit
    for command in COMMANDS:
        units[f"cmd.{command}_s"] = COMMAND_UNIT
    units["trace.instances_per_s"] = "1/s"
    units["trace.overhead_share"] = "share"
    return units


PER_LAYER = _per_layer_units()


def source_digest() -> str:
    """SHA-256 over the package sources: two runs of the same program share
    their determinism record, runs of different programs never do."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "transversals").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()[:16]


class DigestStore:
    """Digests of every report and stdout per workload, seed, instance and
    command, kept across runs of the same program in the checkout.  A
    digest that differs from an earlier run's is a failure."""

    def __init__(self, root: Path, workload: str, seed: int) -> None:
        self.path = root / ".bench_digests" / source_digest() / f"{workload}-{seed}.json"
        try:
            self.known = json.loads(self.path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            self.known = {}
        self.dirty = False

    def check(self, key: str, found: dict):
        earlier = self.known.get(key)
        if earlier is None:
            self.known[key] = found
            self.dirty = True
            return None
        if earlier != found:
            return "bytes differ from an earlier run of this program and seed"
        return None

    def save(self) -> None:
        if not self.dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


def measure_setup(root: Path) -> float:
    """Median time from starting an interpreter to having imported the
    package and the benchmark, over SETUP_PROBES fresh processes."""
    bench = Path(__file__).resolve().parent
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", _PROBE, str(SRC), str(bench)],
            cwd=root,
            stdout=subprocess.PIPE,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line != b"ready\n":
            raise RuntimeError(f"set-up probe failed with exit code {probe.returncode}")
        times.append(elapsed)
    return statistics.median(times)


def run_instance(workload, kind, seed, store=None, tracer=None):
    """Run one instance's pipeline; returns its checked OpResults.  A given
    tracer records spans during the commands only, not during the checks."""
    context = {}
    results = []
    for op in pipelines.instance_ops(workload, kind, seed):
        if tracer is None:
            result = pipelines.execute(op)
        else:
            tracer.active = True
            try:
                result = pipelines.execute(op)
            finally:
                tracer.active = False
        pipelines.verify(result, context)
        if store is not None and result.error is None:
            result.error = store.check(f"{kind.label}/{seed}/{op.key}", result.digests)
        results.append(result)
    return results


class Tally:
    """Per-kind command seconds, counts and failures of one pass."""

    def __init__(self, workload) -> None:
        self.kinds = [kind.label for kind in workload.kinds]
        self.samples = {label: [] for label in self.kinds}  # per-instance Counters
        self.instances = 0
        self.seconds = 0.0
        self.attempted = 0
        self.failures = []
        self.stdout_bytes = 0

    def add(self, kind, results) -> None:
        sample = Counter()
        for result in results:
            sample[result.op.command] += result.seconds
            self.attempted += 1
            self.stdout_bytes += len(result.stdout.encode("utf-8"))
            if result.error is not None:
                self.failures.append(f"{' '.join(result.op.argv)}: {result.error}")
        self.samples[kind.label].append(sample)
        self.instances += 1
        self.seconds += sum(sample.values())

    def per_instance(self, command: str) -> float:
        """Seconds per instance in one command at the workload's mix of
        kinds: the mean over kinds of the kind's mean instance seconds, so a
        run that stops between kinds keeps the mix."""
        return statistics.fmean(
            statistics.fmean(sample[command] for sample in self.samples[label])
            for label in self.kinds
        )

    def rate(self) -> float:
        """Instances per second: the reciprocal of the per-instance seconds
        summed over commands."""
        return 1 / sum(self.per_instance(command) for command in COMMANDS)


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path):
    """One benchmark run; returns (result document, human-readable lines)."""
    workload = WORKLOADS[workload_name]
    setup_s = None if trace else measure_setup(root)
    work_parent = root / ".bench_work"
    work_parent.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_parent)
    store = DigestStore(root, workload.name, seed)
    plain = Tally(workload)
    traced = Tally(workload)
    tracer = tracing.Tracer()
    kinds = workload.kinds
    cwd = os.getcwd()
    try:
        os.chdir(work)
        with tracer if trace else contextlib.nullcontext():
            index = 0
            # Every kind runs at least once; after that the run stops at the
            # first instance boundary past the run length.
            while index < len(kinds) or plain.seconds + traced.seconds < seconds:
                kind = kinds[index % len(kinds)]
                instance_seed = seed * _SEED_STRIDE + index // len(kinds)
                results = run_instance(workload, kind, instance_seed, store)
                plain.add(kind, results)
                if trace:
                    tracer.instance = index
                    again = run_instance(workload, kind, instance_seed, tracer=tracer)
                    for first, second in zip(results, again):
                        if second.error is None and second.digests != first.digests:
                            second.error = "traced run printed different bytes"
                    traced.add(kind, again)
                index += 1
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)
    store.save()

    attempted = plain.attempted + traced.attempted
    failures = plain.failures + traced.failures
    lines = [
        f"workload {workload.name} seed {seed} trace {int(trace)}: "
        f"{plain.instances} instances, {attempted} operations, {len(failures)} failed",
    ]
    lines += [f"FAILED {failure}" for failure in failures[:20]]
    if trace:
        metrics = _per_layer(plain, traced, tracer)
        traces = root / ".bench_traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{workload.name}.jsonl")
    else:
        metrics = {
            "instances_per_s": plain.rate(),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        lines += _end_to_end_lines(plain, metrics, attempted, len(failures))
    units = PER_LAYER if trace else END_TO_END
    document = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return document, lines


def _end_to_end_lines(plain, metrics, attempted, failed):
    """Every end-to-end metric by name and unit, including the per-command
    times of the commands this workload runs and the failed share."""
    lines = []
    for name, unit in END_TO_END.items():
        lines.append(f"{name} {metrics[name]:.6g} {unit}")
    for command in COMMANDS:
        value = plain.per_instance(command)
        if value:
            lines.append(f"cmd.{command}_s {value:.6g} {COMMAND_UNIT}")
    lines.append(f"failed_share {failed / attempted:.6g} share ({failed}/{attempted})")
    return lines


def _per_layer(plain, traced, tracer):
    summary = tracer.summary()
    calls = summary["calls"]
    inclusive = summary["inclusive"]
    self_time = summary["self"]
    counters = tracer.counters
    n = traced.instances
    total = traced.seconds
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = summary["layer_self"][layer] / n
        metrics[f"{layer}.self_share"] = summary["layer_self"][layer] / total
    for name in PER_LAYER:
        if name in metrics:
            continue
        function, _, stat = name.rpartition(".")
        if stat == "calls":
            metrics[name] = calls[function] / n
        elif stat == "self_s":
            metrics[name] = self_time[function] / n
        elif stat == "s":
            metrics[name] = inclusive[function] / n
    sff = "exactla.standard_form_feasible"
    metrics[f"{sff}.cells"] = counters[f"{sff}.cells"] / n
    metrics[f"{sff}.infeasible_share"] = (
        counters[f"{sff}.infeasible"] / calls[sff] if calls[sff] else 0.0
    )
    metrics[f"{sff}.max_bits"] = counters[f"{sff}.max_bits"]
    kt = "transversal.k_transversal"
    metrics[f"{kt}.lp_per_call"] = (
        summary["lp_in_k_transversal"] / calls[kt] if calls[kt] else 0.0
    )
    gen = "generators.gen_counterexample"
    metrics["generators.tries_per_instance"] = (
        calls["generators.counterexample_from_points"] / calls[gen] if calls[gen] else 0.0
    )
    claim = inclusive["certificate.verify_claim"]
    metrics["certificate.simplices_per_s"] = (
        counters["certificate.simplices"] / claim if claim else 0.0
    )
    metrics["cli.atomic_write.bytes"] = counters["cli.atomic_write.bytes"] / n
    metrics["cli.stdout_bytes"] = traced.stdout_bytes / n
    for command in COMMANDS:
        metrics[f"cmd.{command}_s"] = plain.per_instance(command)
    metrics["trace.instances_per_s"] = traced.rate()
    metrics["trace.overhead_share"] = 1 - traced.rate() / plain.rate()
    return metrics
