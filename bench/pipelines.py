"""The benchmark's workloads: which instances are generated, which CLI
commands run on each, and the checks every command's output must pass.

Every command runs in-process through ``transversals.cli.main`` with stdout
captured.  Checks run after the command, outside its timing, and use only
the library's own exact validators and exact arithmetic on the reports.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from transversals import cli
from transversals.convex import AffineFlat, VPolytope, contains
from transversals.exactla import QVector, parse_rational
from transversals.transversal import partitions, validate_witness

INSTANCE = "inst.json"
CERT = INSTANCE + ".cert.txt"

GUARANTEE = "guarantee"
CERTIFICATE = "certificate"
GENERATE = "generate"

COMMANDS = ("generate", "check_colorful", "verify_theorem", "transversal", "certificate")


@dataclass(frozen=True)
class Kind:
    """One instance shape: generator kind, targets and representation."""

    generator: str
    ks: tuple
    representation: str = "truncated"

    @property
    def label(self) -> str:
        return "%s-%s-%s" % (
            self.generator,
            "_".join(str(k) for k in self.ks),
            self.representation,
        )


@dataclass(frozen=True)
class Workload:
    """Instance kinds, run in turn, and the pipeline each instance runs
    through.  Why each workload exists is recorded in BENCHMARK.json."""

    name: str
    kinds: tuple
    pipeline: str  # GUARANTEE, CERTIFICATE or GENERATE


WORKLOADS = {
    w.name: w
    for w in (
        Workload("guarantee-wide", (Kind("random", (1, 1, 1)),), GUARANTEE),
        Workload(
            "certificate-join",
            (
                Kind("counterexample", (2, 1)),
                Kind("counterexample", (2, 2)),
                Kind("counterexample", (3, 1)),
            ),
            CERTIFICATE,
        ),
        Workload(
            "generate-rank",
            tuple(
                Kind("counterexample", ks, rep)
                for ks in ((1, 1, 1, 1), (2, 2, 2), (2, 1, 1))
                for rep in ("truncated", "flats")
            ),
            GENERATE,
        ),
    )
}


class CheckFailed(Exception):
    """A command's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One CLI command of an instance's pipeline and how to check it."""

    command: str  # one of COMMANDS
    key: str  # unique within an instance; names the digests
    argv: list
    expect: int
    outputs: tuple  # files the command writes, digested byte for byte
    check: Callable  # check(context, stdout) -> None; raises on a wrong output


@dataclass
class OpResult:
    op: Op
    seconds: float
    exit_code: Optional[int]
    stdout: str
    digests: dict = field(default_factory=dict)
    error: Optional[str] = None


def execute(op: Op) -> OpResult:
    """Run one command through the CLI entry point; only this is timed.

    Its output files are removed first, so no check can read a file that
    an earlier command wrote."""
    for path in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(path)
    buffer = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buffer):
            code = cli.main(op.argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed operation, not a crashed run
        code = None
        error = f"exception {exc!r}"
    seconds = time.perf_counter() - start
    return OpResult(op, seconds, code, buffer.getvalue(), error=error)


def verify(result: OpResult, context: dict) -> None:
    """Exit code, output checks and digests; the first failure is kept."""
    result.digests = digests(result)
    if result.error is not None:
        return
    if result.exit_code != result.op.expect:
        result.error = f"exit {result.exit_code}, expected {result.op.expect}"
        return
    try:
        result.op.check(context, result.stdout)
    except Exception as exc:  # any wrong or unreadable output counts as failed
        result.error = f"{type(exc).__name__}: {exc}"


def digests(result: OpResult) -> dict:
    found = {"stdout": hashlib.sha256(result.stdout.encode("utf-8")).hexdigest()}
    for path in result.op.outputs:
        try:
            with open(path, "rb") as handle:
                found[path] = hashlib.sha256(handle.read()).hexdigest()
        except FileNotFoundError:
            found[path] = "missing"
    return found


def instance_ops(workload: Workload, kind: Kind, seed: int) -> list:
    """The commands one instance runs through, in order."""
    generate = [
        "generate", kind.generator, "--ks", ",".join(str(k) for k in kind.ks),
        "--seed", str(seed), "--out", INSTANCE,
    ]
    outputs = (INSTANCE,)
    if kind.generator == "counterexample":
        generate += ["--representation", kind.representation]
        outputs += (CERT,)
    ops = [Op("generate", "generate", generate, 0, outputs, _check_generated(kind))]
    if workload.pipeline == GENERATE:
        return ops
    ops.append(_report_op("check_colorful", "check-colorful", 0, _check_colorful))
    if workload.pipeline == GUARANTEE:
        ops.append(_report_op("verify_theorem", "verify-theorem", 0, _check_theorem))
        ops.append(_report_op("certificate", "certificate", 0, _check_confirmed))
        return ops
    for family in range(1, len(kind.ks) + 1):
        ops.append(
            _report_op(
                "transversal",
                "transversal",
                1,
                _check_separations(family),
                ["--family", str(family)],
                f"transversal-{family}",
            )
        )
    ops.append(_report_op("certificate", "certificate", 0, _check_complete))
    return ops


def _report_op(command, subcommand, expect, check, extra=(), key=None):
    key = key or subcommand
    report = f"{key}.json"
    argv = [subcommand, INSTANCE, *extra, "--out", report]
    return Op(
        command, key, argv, expect, (report,), lambda ctx, out: check(ctx, out, _load(report))
    )


def _load(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _lines(stdout: str) -> list:
    require(stdout.endswith("\n"), "stdout does not end with a newline")
    return stdout[:-1].split("\n")


def _passed(line: str) -> bool:
    tokens = line.split()
    return "PASS" in tokens and "FAIL" not in tokens


def _member_tuples(ks):
    return [list(t) for t in itertools.product(*[range(1, k + 3) for k in ks])]


def _vector(entries):
    return [parse_rational(e) for e in entries]


def _dot(a, b) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# checks


def _check_generated(kind: Kind):
    def check(ctx, stdout):
        instance, _ = cli.load_instance(INSTANCE)
        n, m = len(kind.ks), sum(kind.ks)
        dim = n + m - 1 if kind.generator == "random" else n + m
        require(instance.dim == dim, f"dimension {instance.dim}, expected {dim}")
        require(
            [f.k for f in instance.families] == list(kind.ks),
            "family targets differ from --ks",
        )
        body_type = AffineFlat if kind.representation == "flats" else VPolytope
        require(
            all(
                isinstance(b, body_type) and len(f.bodies) == f.k + 2
                for f in instance.families
                for b in f.bodies
            ),
            "family members have the wrong count or representation",
        )
        ctx["instance"] = instance
        if kind.generator != "counterexample":
            require(stdout == f"wrote {INSTANCE}\n", "unexpected stdout")
            return
        require(stdout == f"wrote {INSTANCE} and {CERT}\n", "unexpected stdout")
        with open(CERT, encoding="utf-8") as handle:
            lines = _lines(handle.read())
        expected = math.comb(2 * n + m, n + m) + n + math.prod(k + 2 for k in kind.ks)
        require(len(lines) == expected, f"{len(lines)} rank checks, expected {expected}")
        require(all(_passed(line) for line in lines), "a rank check is not PASS")

    return check


def _check_colorful(ctx, stdout, report):
    instance = ctx["instance"]
    tuples = _member_tuples([f.k for f in instance.families])
    require(report.get("holds") is True, "colorful property reported as failing")
    require(
        stdout == f"colorful-property holds tuples={len(tuples)} PASS\n",
        "unexpected stdout",
    )
    witnesses = report["witnesses"]
    require([w["tuple"] for w in witnesses] == tuples, "witness tuples differ")
    for w in witnesses:
        point = QVector(_vector(w["point"]))
        for family, member in zip(instance.families, w["tuple"]):
            require(
                contains(family.bodies[member - 1], point),
                f"tuple {w['tuple']} point misses member {member}",
            )


def _check_witness(instance, report):
    family = report["family"]
    witness = cli.witness_from_json(report["witness"])
    validate_witness(instance.families[family - 1], witness)
    return family


def _check_theorem(ctx, stdout, report):
    ctx["family"] = _check_witness(ctx["instance"], report)
    require(stdout.startswith(f"theorem family={ctx['family']} "), "unexpected stdout")
    require(_passed(_lines(stdout)[0]), "theorem line is not PASS")


def _check_confirmed(ctx, stdout, report):
    require(report["verdict"] == "THEOREM-CONFIRMED", f"verdict {report['verdict']}")
    family = _check_witness(ctx["instance"], report)
    require(family == ctx.get("family"), "certificate and verify-theorem name different families")
    checks = report["checks"]
    require(
        len(checks) == 1 and checks[0]["name"] == "inseparable-pair"
        and checks[0]["outcome"] == "PASS",
        "expected one passing inseparable-pair check",
    )
    lines = _lines(stdout)
    require(len(lines) == 2 and _passed(lines[0]), "ledger line is not PASS")
    require(lines[-1] == "verdict THEOREM-CONFIRMED", "unexpected verdict line")


def _check_separations(index: int):
    def check(ctx, stdout, report):
        family = ctx["instance"].families[index - 1]
        require(report["found"] is False, "a transversal was reported")
        expected = [{"a": list(p.part_a), "b": list(p.part_b)} for p in partitions(family.k + 2)]
        separations = report["separations"]
        require(
            [s["partition"] for s in separations] == expected,
            "separation ledger does not list every partition once",
        )
        points = [[list(g) for g in body.generators] for body in family.bodies]
        for entry in separations:
            normal = _vector(entry["normal"])
            offset = parse_rational(entry["offset"])
            for idx in entry["partition"]["a"]:
                require(
                    all(_dot(normal, g) > offset for g in points[idx - 1]),
                    f"normal of {entry['partition']} misses block a",
                )
            for idx in entry["partition"]["b"]:
                require(
                    all(_dot(normal, g) < offset for g in points[idx - 1]),
                    f"normal of {entry['partition']} misses block b",
                )
        lines = _lines(stdout)
        require(len(lines) == len(expected) + 1, "unexpected stdout line count")
        require(
            lines[-1] == f"transversal family={index} k={family.k} FAIL all partitions separated",
            "unexpected final line",
        )

    return check


def _check_complete(ctx, stdout, report):
    instance = ctx["instance"]
    require(report["verdict"] == "CERTIFICATE-COMPLETE", f"verdict {report['verdict']}")
    checks = report["checks"]
    require(all(c["outcome"] == "PASS" for c in checks), "a ledger check is not PASS")
    simplices = sum(1 for c in checks if c["name"] == "claim-simplex")
    expected = math.prod(math.factorial(f.k + 2) for f in instance.families)
    require(simplices == expected, f"{simplices} claim-simplex lines, expected {expected}")
    lines = _lines(stdout)
    require(len(lines) == len(checks) + 1, "unexpected ledger line count")
    require(all(_passed(line) for line in lines[:-1]), "a ledger line is not PASS")
    require(lines[-1] == "verdict CERTIFICATE-COMPLETE", "unexpected verdict line")
