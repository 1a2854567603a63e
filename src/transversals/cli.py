"""Command-line front end, instance file format, and report emission.

Instances are single JSON documents.  Every coordinate is a rational
string ("3" or "-7/2"), never a numeric literal, so no consumer can
silently round.  Reports mirror the same conventions; witnesses they
carry re-validate through the library.

Exit codes are stable: 0 success / affirmative decision, 1 negative
decision, 2 precondition or parse failure (a literal or a result above
the integer-digit limit included), 3 theorem violation, certificate
inconsistency or any other exception (a bug signal), 4 generator retry
exhaustion.  Commands raise and ``main`` maps exceptions to codes, except
that ``cmd_verify_theorem`` turns TheoremViolationError into exit 3 itself,
after printing the offending instance for triage.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile

from .certificate import (
    CertificateInconsistencyError,
    assign_from_scan,
    full_certificate,
)
from .convex import AffineFlat, UnsupportedRepresentationError, VPolytope
from .exactla import (
    MalformedInputError,
    QVector,
    _over_digit_limit,
    format_rational,
    parse_rational,
)
from .generators import (
    FLATS,
    TRUNCATED,
    RetryExhaustedError,
    gen_colorful_random,
    gen_counterexample,
    gen_planted,
)
from .transversal import (
    Family,
    Instance,
    Partition,
    TheoremPreconditionError,
    TheoremViolationError,
    TransversalWitness,
    check_colorful,
    partitions,
    scan_partitions,
    verify_theorem,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_PRECONDITION = 2
EXIT_THEOREM_VIOLATION = 3
EXIT_RETRY_EXHAUSTED = 4


class InstanceFormatError(ValueError):
    """Malformed instance document; the message carries the JSON location."""


class ReportWriteError(Exception):
    """An output file could not be written; the message names its path."""


# ---------------------------------------------------------------------------
# serialization


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` load as ``bool``, which
    Python counts as ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _field(obj, key: str, where: str = ""):
    """``obj[key]`` of a JSON object; ``where`` locates ``obj`` in the
    document (empty at the top level)."""
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where or 'top level'}: expected an object")
    if key not in obj:
        raise InstanceFormatError(f"{where + '.' if where else ''}{key}: missing")
    return obj[key]


def _vector_to_json(vector: QVector):
    return [format_rational(e) for e in vector]


def _vector_from_json(obj, where: str, dim=None) -> QVector:
    if not isinstance(obj, list) or not obj:
        raise InstanceFormatError(f"{where}: expected a nonempty coordinate list")
    try:
        entries = [parse_rational(e) for e in obj]
    except MalformedInputError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc
    if dim is not None and len(entries) != dim:
        raise InstanceFormatError(
            f"{where}: expected {dim} coordinates, got {len(entries)}"
        )
    return QVector(entries)


def flat_to_json(flat: AffineFlat, vector_to_json=_vector_to_json) -> dict:
    return {
        "base": vector_to_json(flat.base),
        "directions": [vector_to_json(d) for d in flat.directions],
    }


def _flat_from_json(base, directions, where: str, dim=None) -> AffineFlat:
    """The flat of an instance or a witness, its lists read at ``where``."""
    base = _vector_from_json(base, f"{where}.base", dim)
    if not isinstance(directions, list):
        raise InstanceFormatError(f"{where}.directions: expected a list")
    dirs = tuple(
        _vector_from_json(d, f"{where}.directions[{i}]", dim)
        for i, d in enumerate(directions)
    )
    try:
        return AffineFlat(base, dirs)
    except MalformedInputError as exc:
        raise InstanceFormatError(f"{where}: {exc}") from exc


def _body_to_json(body, vector_to_json):
    if isinstance(body, VPolytope):
        return {
            "type": "vpolytope",
            "points": [vector_to_json(g) for g in body.generators],
        }
    return {"type": "flat", **flat_to_json(body, vector_to_json)}


def _body_from_json(obj, where: str, dim: int):
    if not isinstance(obj, dict):
        raise InstanceFormatError(f"{where}: expected an object")
    kind = obj.get("type")
    if kind == "vpolytope":
        points = obj.get("points")
        if not isinstance(points, list) or not points:
            raise InstanceFormatError(f"{where}.points: expected a nonempty list")
        return VPolytope(
            tuple(
                _vector_from_json(p, f"{where}.points[{i}]", dim)
                for i, p in enumerate(points)
            )
        )
    if kind == "flat":
        return _flat_from_json(obj.get("base"), obj.get("directions", []), where, dim)
    raise InstanceFormatError(f"{where}.type: expected 'vpolytope' or 'flat'")


def instance_to_json(instance: Instance, meta=None) -> dict:
    """The instance document.  Each vector object is formatted once and its
    list reused wherever the instance holds it again, as a counterexample's
    tuple points and fiber directions are held."""
    formatted = {}  # keyed by id(vector); the instance keeps every id live

    def vector_to_json(vector):
        key = id(vector)
        if key not in formatted:
            formatted[key] = _vector_to_json(vector)
        return formatted[key]

    doc = {
        "dimension": instance.dim,
        "families": [
            {"k": fam.k, "sets": [_body_to_json(b, vector_to_json) for b in fam.bodies]}
            for fam in instance.families
        ],
    }
    if meta:
        doc["meta"] = meta
    return doc


def instance_from_json(doc):
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level: expected an object")
    dim = doc.get("dimension")
    if not _is_int(dim) or dim < 1:
        raise InstanceFormatError("dimension: expected a positive integer")
    families_obj = doc.get("families")
    if not isinstance(families_obj, list) or not families_obj:
        raise InstanceFormatError("families: expected a nonempty list")
    families = []
    for i, fam_obj in enumerate(families_obj):
        where = f"families[{i}]"
        if not isinstance(fam_obj, dict):
            raise InstanceFormatError(f"{where}: expected an object")
        k = fam_obj.get("k")
        if not _is_int(k) or k < 0:
            raise InstanceFormatError(f"{where}.k: expected a non-negative integer")
        sets = fam_obj.get("sets")
        if not isinstance(sets, list) or not sets:
            raise InstanceFormatError(f"{where}.sets: expected a nonempty list")
        bodies = tuple(
            _body_from_json(b, f"{where}.sets[{j}]", dim) for j, b in enumerate(sets)
        )
        families.append(Family(k, bodies))
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise InstanceFormatError("meta: expected an object")
    return Instance(dim, tuple(families)), meta


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _refuse_non_regular(path: str) -> None:
    if os.path.exists(path) and not os.path.isfile(path):
        raise ReportWriteError(f"cannot write {path}: not a regular file")


def atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file in the same
    directory, removed again on failure, with the mode ``open`` gives a new
    file.  An existing ``path`` that is not a regular file (a directory, a
    FIFO, a device) is left in place.  That refusal and any OSError surface
    as ReportWriteError naming ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    _refuse_non_regular(path)
    try:
        umask = os.umask(0)
        os.umask(umask)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                os.fchmod(fd, 0o666 & ~umask)
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ReportWriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def save_instance(path: str, instance: Instance, meta=None) -> None:
    atomic_write(path, _dump_json(instance_to_json(instance, meta)))


def load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except (OSError, ValueError) as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise InstanceFormatError(f"{path}: nested too deeply to decode") from exc
    try:
        return instance_from_json(doc)
    except InstanceFormatError as exc:
        raise InstanceFormatError(f"{path}: {exc}") from exc


def partition_to_json(partition: Partition) -> dict:
    return {"a": list(partition.part_a), "b": list(partition.part_b)}


def partition_from_json(obj) -> Partition:
    blocks = []
    for key in ("a", "b"):
        block = _field(obj, key, "partition")
        if not isinstance(block, list) or not all(_is_int(i) for i in block):
            raise InstanceFormatError(f"partition.{key}: expected member indices")
        blocks.append(tuple(block))
    try:
        return Partition(*blocks)
    except MalformedInputError as exc:
        raise InstanceFormatError(f"partition: {exc}") from exc


def witness_to_json(witness: TransversalWitness) -> dict:
    return {
        "partition": partition_to_json(witness.partition),
        "crossing_point": _vector_to_json(witness.crossing_point),
        "anchors": [
            {"member": idx, "point": _vector_to_json(p)}
            for idx, p in witness.anchor_points
        ],
        "flat": flat_to_json(witness.flat),
    }


def witness_from_json(obj) -> TransversalWitness:
    flat_obj = _field(obj, "flat")
    flat = _flat_from_json(
        _field(flat_obj, "base", "flat"), _field(flat_obj, "directions", "flat"), "flat"
    )
    anchors_obj = _field(obj, "anchors")
    if not isinstance(anchors_obj, list):
        raise InstanceFormatError("anchors: expected a list")
    anchors = []
    for i, anchor in enumerate(anchors_obj):
        where = f"anchors[{i}]"
        member = _field(anchor, "member", where)
        if not _is_int(member):
            raise InstanceFormatError(f"{where}.member: expected an integer")
        point = _vector_from_json(_field(anchor, "point", where), f"{where}.point")
        anchors.append((member, point))
    return TransversalWitness(
        partition_from_json(_field(obj, "partition")),
        _vector_from_json(_field(obj, "crossing_point"), "crossing_point"),
        tuple(anchors),
        flat,
    )


def _emit(report_doc, out):
    """Write the report to ``out`` when one is given.  Commands call it
    before printing their result, so an unwritable ``out`` prints none."""
    if out:
        atomic_write(out, _dump_json(report_doc))


# ---------------------------------------------------------------------------
# commands


def cmd_check_colorful(path: str, out=None) -> int:
    instance, _ = load_instance(path)
    report = check_colorful(instance)
    if report.holds:
        doc = {
            "command": "check-colorful",
            "holds": True,
            "witnesses": [
                {"tuple": list(t), "point": _vector_to_json(p)}
                for t, p in sorted(report.witnesses.items())
            ],
        }
        _emit(doc, out)
        print(f"colorful-property holds tuples={len(report.witnesses)} PASS")
        return EXIT_OK
    _emit(
        {
            "command": "check-colorful",
            "holds": False,
            "failing_tuple": list(report.failing_tuple),
        },
        out,
    )
    print(f"colorful-property tuple={report.failing_tuple} FAIL empty intersection")
    return EXIT_NEGATIVE


def cmd_transversal(path: str, family_index: int, out=None) -> int:
    instance, _ = load_instance(path)
    if not 1 <= family_index <= len(instance.families):
        raise MalformedInputError(
            f"no family {family_index} (instance has {len(instance.families)})"
        )
    family = instance.families[family_index - 1]
    scan = scan_partitions(family)
    witness = scan.witness
    if witness is not None:
        _emit(
            {
                "command": "transversal",
                "family": family_index,
                "found": True,
                "witness": witness_to_json(witness),
            },
            out,
        )
        print(
            f"transversal family={family_index} k={family.k} "
            f"partition={witness.partition.label()} PASS"
        )
        print(
            "  flat base=(%s) directions=[%s]"
            % (
                ",".join(format_rational(e) for e in witness.flat.base),
                " ".join(
                    "(%s)" % ",".join(format_rational(e) for e in d)
                    for d in witness.flat.directions
                ),
            )
        )
        return EXIT_OK
    assignment = assign_from_scan(family, scan, family_index)
    lines = []
    separations = []
    for part in partitions(family.k + 2):
        normal, offset = assignment.normal_for(part.part_a)
        lines.append(
            f"separated partition={part.label()} "
            f"normal=({','.join(format_rational(e) for e in normal)}) "
            f"offset={format_rational(offset)}"
        )
        separations.append(
            {
                "partition": partition_to_json(part),
                "normal": _vector_to_json(normal),
                "offset": format_rational(offset),
            }
        )
    _emit(
        {
            "command": "transversal",
            "family": family_index,
            "found": False,
            "separations": separations,
        },
        out,
    )
    for line in lines:
        print(line)
    print(f"transversal family={family_index} k={family.k} FAIL all partitions separated")
    return EXIT_NEGATIVE


def cmd_verify_theorem(path: str, out=None) -> int:
    instance, _ = load_instance(path)
    n = len(instance.families)
    m = instance.total_target
    if instance.dim == n + m:
        raise TheoremPreconditionError(
            f"dimension {instance.dim} is the optimality dimension "
            f"n+m; use the certificate command for such instances"
        )
    try:
        report = verify_theorem(instance)
    except TheoremViolationError as exc:
        print(f"THEOREM-VIOLATION {exc}")
        print("offending instance follows for triage:")
        print(_dump_json(instance_to_json(instance)), end="")
        return EXIT_THEOREM_VIOLATION
    witness = report.witness
    _emit(
        {
            "command": "verify-theorem",
            "family": report.family_index,
            "witness": witness_to_json(witness),
        },
        out,
    )
    print(
        f"theorem family={report.family_index} "
        f"partition={witness.partition.label()} PASS"
    )
    return EXIT_OK


def cmd_generate(
    kind: str,
    ks,
    seed: int,
    representation=None,
    out_path: str = "instance.json",
    dim=None,
) -> int:
    ks = list(ks)
    if dim is not None and kind != "planted":
        raise MalformedInputError(f"--dim applies to the planted kind only, not {kind}")
    if representation is not None and kind != "counterexample":
        raise MalformedInputError(
            f"--representation applies to the counterexample kind only, not {kind}"
        )
    meta = {"generator": kind, "ks": ks, "seed": seed}
    if kind == "counterexample":
        representation = representation or TRUNCATED
        ce = gen_counterexample(ks, seed, representation)
        meta["representation"] = representation
        cert_path = out_path + ".cert.txt"
        _refuse_non_regular(cert_path)  # before inst.json is written
        save_instance(out_path, ce.instance, meta)
        cert_lines = [c.ledger_line() for c in ce.checks]
        atomic_write(cert_path, "\n".join(cert_lines) + "\n")
        print(f"wrote {out_path} and {cert_path}")
        return EXIT_OK
    if kind == "planted":
        if dim is None:
            dim = len(ks) + sum(ks) - 1
        meta["dim"] = dim
        instance = gen_planted(dim, ks, seed)
    elif kind == "random":
        instance = gen_colorful_random(ks, seed)
    else:
        raise MalformedInputError(f"unknown generator kind {kind!r}")
    save_instance(out_path, instance, meta)
    print(f"wrote {out_path}")
    return EXIT_OK


def cmd_certificate(path: str, out=None) -> int:
    instance, _ = load_instance(path)
    report = full_certificate(instance)
    doc = {
        "command": "certificate",
        "verdict": report.verdict,
        "checks": [
            {
                "name": c.name,
                "params": c.params,
                "outcome": "PASS" if c.passed else "FAIL",
                "details": c.details,
            }
            for c in report.checks
        ],
    }
    if report.confirmed_family is not None:
        doc["family"] = report.confirmed_family
        doc["witness"] = witness_to_json(report.confirmed_witness)
    _emit(doc, out)
    for line in report.ledger_lines():
        print(line)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


# An integer option in ASCII digits only; ``int`` alone would also take
# ``1_0``, ``+2``, spaces and non-ASCII digits.
_INTEGER = re.compile("-?[0-9]+")


def _parse_int(text: str) -> int:
    """An integer option; one above the digit limit is refused without
    being echoed."""
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}")
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(str(_over_digit_limit("integer"))) from None


def _parse_ks(text: str):
    """Comma list of non-negative integers, each read by ``_parse_int``."""
    parts = text.split(",")
    if not all(_INTEGER.fullmatch(part) and part[0] != "-" for part in parts):
        raise argparse.ArgumentTypeError(f"bad --ks list {text!r}")
    return [_parse_int(part) for part in parts]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared for the rest
    of the process: building it costs about ten times what parsing costs."""
    parser = argparse.ArgumentParser(
        prog="transversals",
        description="Exact decisions for flat transversals of convex set families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family=False):
        p.add_argument("instance", help="instance file (JSON)")
        p.add_argument("--out", help="write a machine-readable report here")
        if family:
            p.add_argument(
                "--family", type=_parse_int, required=True, help="family index, 1-based"
            )

    p = sub.add_parser("check-colorful", help="decide the colorful intersection property")
    add_common(p)
    p = sub.add_parser("transversal", help="decide one family's k-transversal")
    add_common(p, family=True)
    p = sub.add_parser("verify-theorem", help="check the transversal guarantee")
    add_common(p)
    p = sub.add_parser("certificate", help="build or refute the separation certificate")
    add_common(p)

    p = sub.add_parser("generate", help="write a generated instance file")
    p.add_argument("kind", choices=["counterexample", "planted", "random"])
    p.add_argument("--ks", type=_parse_ks, required=True, help="comma list of targets")
    p.add_argument("--seed", type=_parse_int, required=True)
    p.add_argument(
        "--representation",
        choices=[FLATS, TRUNCATED],
        default=None,
        help="counterexample member representation (default truncated)",
    )
    p.add_argument(
        "--dim", type=_parse_int, default=None, help="ambient dimension (planted kind only)"
    )
    p.add_argument("--out", required=True, help="instance file to write")
    return parser


# What a command that needs V-polytopes advises when it meets affine flats.
_FLATS_ADVICE = {
    "transversal": "family contains affine flats; regenerate with "
    "--representation truncated",
    "verify-theorem": "instance contains affine flats; truncate before verifying",
    "certificate": "certificate needs V-polytopes; regenerate with "
    "--representation truncated",
}


def main(argv=None) -> int:
    """Run one command and map the exceptions it raises to exit codes, so exit
    1 always means a negative decision; ``cmd_verify_theorem`` alone catches
    one itself (TheoremViolationError, for its triage dump)."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "check-colorful":
            return cmd_check_colorful(args.instance, args.out)
        if args.command == "transversal":
            return cmd_transversal(args.instance, args.family, args.out)
        if args.command == "verify-theorem":
            return cmd_verify_theorem(args.instance, args.out)
        if args.command == "certificate":
            return cmd_certificate(args.instance, args.out)
        if args.command == "generate":
            return cmd_generate(
                args.kind, args.ks, args.seed, args.representation, args.out, args.dim
            )
    except (
        InstanceFormatError,
        MalformedInputError,
        ReportWriteError,
        TheoremPreconditionError,
    ) as exc:
        print(f"error: {exc}")
        return EXIT_PRECONDITION
    except UnsupportedRepresentationError as exc:
        print(f"error: {_FLATS_ADVICE.get(args.command, exc)}")
        return EXIT_PRECONDITION
    except CertificateInconsistencyError as exc:
        print(f"error: certificate inconsistency: {exc}")
        return EXIT_THEOREM_VIOLATION
    except RetryExhaustedError as exc:
        print(f"error: {exc}")
        return EXIT_RETRY_EXHAUSTED
    except Exception as exc:
        sys.excepthook(type(exc), exc, exc.__traceback__)  # keep the traceback for triage
        print(f"error: internal error: {type(exc).__name__}: {exc}")
        return EXIT_THEOREM_VIOLATION
    raise AssertionError("unreachable command dispatch")


if __name__ == "__main__":
    sys.exit(main())
