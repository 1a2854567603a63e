import importlib.util
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from transversals.cli import (
    EXIT_NEGATIVE,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_RETRY_EXHAUSTED,
    EXIT_THEOREM_VIOLATION,
    InstanceFormatError,
    ReportWriteError,
    _parse_ks,
    build_parser,
    cmd_certificate,
    cmd_check_colorful,
    cmd_generate,
    cmd_transversal,
    cmd_verify_theorem,
    instance_from_json,
    instance_to_json,
    load_instance,
    main,
    save_instance,
    witness_from_json,
    witness_to_json,
)
from transversals import certificate as certificate_module
from transversals import cli as cli_module
from transversals import generators as generators_module
from transversals import transversal as transversal_module
from transversals.certificate import CertificateInconsistencyError
from transversals.convex import AffineFlat, UnsupportedRepresentationError, VPolytope
from transversals.exactla import MalformedInputError, QVector
from transversals.generators import (
    RetryExhaustedError,
    counterexample_from_points,
    gen_counterexample,
)
from transversals.transversal import (
    Family,
    Instance,
    TheoremPreconditionError,
    k_transversal,
    partitions,
    validate_witness,
)


def vec(*entries):
    return QVector(entries)


def segment(a, b):
    return VPolytope((QVector(a), QVector(b)))


def interval_instance():
    return Instance(
        1,
        (
            Family(0, (segment([0], [2]), segment([1], [3]))),
            Family(0, (segment([0], [3]), segment([1], [2]))),
        ),
    )


def non_colorful_instance():
    """Theorem mode on the line with k+2 members per family, and no member
    of the first family meets a member of the second."""
    return Instance(
        1,
        (
            Family(0, (segment([0], [1]), segment([0], [1]))),
            Family(0, (segment([2], [3]), segment([2], [3]))),
        ),
    )


def disjoint_instance():
    return Instance(
        1,
        (
            Family(0, (segment([0], [1]),)),
            Family(0, (segment([2], [3]),)),
        ),
    )


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        instance = Instance(
            2,
            (
                Family(1, (segment([0, 0], [1, 0]), VPolytope((vec(2, 2),)),
                           AffineFlat(vec(0, 1), (vec(1, -3),)))),
            ),
        )
        path = tmp_path / "inst.json"
        save_instance(str(path), instance, {"note": "fixture"})
        loaded, meta = load_instance(str(path))
        assert loaded == instance
        assert meta == {"note": "fixture"}
        assert instance_from_json(instance_to_json(loaded, meta))[0] == instance

    @pytest.mark.parametrize("representation", ["truncated", "flats"])
    def test_shared_vectors_give_the_bytes_of_fresh_copies(self, tmp_path, representation):
        def fresh(v):
            return QVector(v.entries)

        def copied(body):
            if isinstance(body, VPolytope):
                return VPolytope(tuple(map(fresh, body.generators)))
            return AffineFlat(fresh(body.base), tuple(map(fresh, body.directions)))

        shared = gen_counterexample([1, 1, 1], 4, representation).instance
        vectors = [
            v
            for family in shared.families
            for body in family.bodies
            for v in (body.generators if isinstance(body, VPolytope) else body.directions)
        ]
        assert len({id(v) for v in vectors}) < len(vectors)
        copy = Instance(
            shared.dim,
            tuple(Family(f.k, tuple(map(copied, f.bodies))) for f in shared.families),
        )
        save_instance(str(tmp_path / "shared.json"), shared, {"seed": 4})
        save_instance(str(tmp_path / "fresh.json"), copy, {"seed": 4})
        assert (tmp_path / "shared.json").read_bytes() == (tmp_path / "fresh.json").read_bytes()
        assert instance_to_json(shared) == instance_to_json(copy)

    def test_rationals_serialized_as_strings(self, tmp_path):
        from fractions import Fraction as F

        instance = Instance(1, (Family(0, (VPolytope((QVector([F(1, 3)]),)),)),))
        path = tmp_path / "q.json"
        save_instance(str(path), instance)
        doc = json.loads(path.read_text())
        assert doc["families"][0]["sets"][0]["points"][0] == ["1/3"]

    @pytest.mark.parametrize(
        "doc,location",
        [
            ({}, "dimension"),
            ({"dimension": 1}, "families"),
            ({"dimension": 1, "families": [{}]}, "families[0].k"),
            (
                {"dimension": 1, "families": [{"k": 0, "sets": [{"type": "x"}]}]},
                "families[0].sets[0].type",
            ),
            (
                {
                    "dimension": 2,
                    "families": [
                        {"k": 0, "sets": [{"type": "vpolytope", "points": [["1"]]}]}
                    ],
                },
                "families[0].sets[0].points[0]",
            ),
            (
                {
                    "dimension": 1,
                    "families": [
                        {"k": 0, "sets": [{"type": "vpolytope", "points": [["0.5"]]}]}
                    ],
                },
                "families[0].sets[0].points[0]",
            ),
            ({"dimension": True, "families": []}, "dimension"),
            (
                {
                    "dimension": 1,
                    "families": [
                        {"k": False, "sets": [{"type": "vpolytope", "points": [["0"]]}]}
                    ],
                },
                "families[0].k",
            ),
        ],
    )
    def test_schema_errors_carry_location(self, doc, location):
        with pytest.raises(InstanceFormatError, match=__import__("re").escape(location)):
            instance_from_json(doc)


class TestCommands:
    def test_check_colorful_exit_codes(self, tmp_path):
        good = tmp_path / "good.json"
        save_instance(str(good), interval_instance())
        out = tmp_path / "report.json"
        assert cmd_check_colorful(str(good), str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["holds"] and len(report["witnesses"]) == 4

        bad = tmp_path / "bad.json"
        save_instance(str(bad), disjoint_instance())
        assert cmd_check_colorful(str(bad), str(out)) == EXIT_NEGATIVE
        report = json.loads(out.read_text())
        assert report["failing_tuple"] == [1, 1]

    def test_parse_error_exit_code(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["check-colorful", str(broken)]) == EXIT_PRECONDITION

    def test_check_colorful_on_truncated_construction(self, tmp_path):
        from transversals.generators import TRUNCATED, counterexample_from_points

        points = [vec(0, 0), vec(1, 0), vec(0, 1), vec(1, 2)]
        ce = counterexample_from_points([0, 0], points, TRUNCATED)
        path = tmp_path / "hand.json"
        save_instance(str(path), ce.instance)
        out = tmp_path / "hand-report.json"
        assert cmd_check_colorful(str(path), str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        found = {tuple(w["tuple"]): w["point"] for w in report["witnesses"]}
        assert found == {
            (1, 1): ["0", "1"],
            (1, 2): ["0", "3"],
            (2, 1): ["1", "0"],
            (2, 2): ["1", "2"],
        }

    def test_transversal_witness_revalidates(self, tmp_path):
        path = tmp_path / "collinear.json"
        instance = Instance(
            2,
            (
                Family(
                    1,
                    (
                        VPolytope((vec(0, 0),)),
                        VPolytope((vec(1, 0),)),
                        VPolytope((vec(2, 0),)),
                    ),
                ),
            ),
        )
        save_instance(str(path), instance)
        out = tmp_path / "witness.json"
        assert cmd_transversal(str(path), 1, str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        witness = witness_from_json(report["witness"])
        validate_witness(instance.families[0], witness)

    def test_transversal_negative_lists_separations(self, tmp_path):
        path = tmp_path / "apart.json"
        instance = Instance(
            2,
            (
                Family(
                    1,
                    (
                        VPolytope((vec(0, 0),)),
                        VPolytope((vec(1, 1),)),
                        VPolytope((vec(2, 0),)),
                    ),
                ),
            ),
        )
        save_instance(str(path), instance)
        out = tmp_path / "ledger.json"
        assert cmd_transversal(str(path), 1, str(out)) == EXIT_NEGATIVE
        report = json.loads(out.read_text())
        assert len(report["separations"]) == 3

    def test_transversal_family_bounds(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(str(path), interval_instance())
        assert main(["transversal", str(path), "--family", "5"]) == EXIT_PRECONDITION

    def test_verify_theorem_round_trip(self, tmp_path):
        path = tmp_path / "intervals.json"
        save_instance(str(path), interval_instance())
        out = tmp_path / "theorem.json"
        assert cmd_verify_theorem(str(path), str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["family"] == 1
        witness = witness_from_json(report["witness"])
        instance = interval_instance()
        validate_witness(instance.families[report["family"] - 1], witness)

    def test_verify_theorem_redirects_optimality_dimension(self, tmp_path):
        path = tmp_path / "ce.json"
        assert cmd_generate("counterexample", [0, 0], 3, out_path=str(path)) == EXIT_OK
        assert main(["verify-theorem", str(path)]) == EXIT_PRECONDITION

    def test_generate_and_certificate(self, tmp_path):
        path = tmp_path / "ce.json"
        assert cmd_generate("counterexample", [1, 1], 3, out_path=str(path)) == EXIT_OK
        sidecar = tmp_path / "ce.json.cert.txt"
        assert sidecar.exists()
        lines = sidecar.read_text().strip().splitlines()
        assert lines and all(line.endswith("PASS") for line in lines)
        out = tmp_path / "cert.json"
        assert cmd_certificate(str(path), str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["verdict"] == "CERTIFICATE-COMPLETE"
        simplices = [c for c in report["checks"] if c["name"] == "claim-simplex"]
        assert len(simplices) == 36

    def test_certificate_on_theorem_mode(self, tmp_path):
        path = tmp_path / "random.json"
        assert cmd_generate("random", [0, 0], 11, out_path=str(path)) == EXIT_OK
        out = tmp_path / "cert.json"
        assert cmd_certificate(str(path), str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["verdict"] == "THEOREM-CONFIRMED"
        instance, _ = load_instance(str(path))
        witness = witness_from_json(report["witness"])
        validate_witness(instance.families[report["family"] - 1], witness)

    def test_certificate_rejects_non_colorful(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        save_instance(str(path), non_colorful_instance())
        for command in ("certificate", "verify-theorem"):
            assert main([command, str(path)]) == EXIT_PRECONDITION
            lines = capsys.readouterr().out.splitlines()
            assert lines == ["error: colorful intersection fails at tuple (1, 1)"]

    def test_certificate_advises_truncation_for_flats(self, tmp_path):
        path = tmp_path / "flats.json"
        assert (
            cmd_generate(
                "counterexample", [0, 0], 3, representation="flats", out_path=str(path)
            )
            == EXIT_OK
        )
        assert main(["certificate", str(path)]) == EXIT_PRECONDITION

    def test_planted_generation(self, tmp_path):
        path = tmp_path / "planted.json"
        assert (
            cmd_generate("planted", [1, 1], 4, out_path=str(path), dim=3) == EXIT_OK
        )
        assert cmd_verify_theorem(str(path)) == EXIT_OK


class TestDeterminism:
    def test_generator_outputs_are_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        for kind, kwargs in [
            ("counterexample", {}),
            ("random", {}),
            ("planted", {"dim": 2}),
        ]:
            cmd_generate(kind, [1, 0], 9, out_path=str(first), **kwargs)
            cmd_generate(kind, [1, 0], 9, out_path=str(second), **kwargs)
            assert first.read_bytes() == second.read_bytes()

    def test_sidecar_certificate_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        cmd_generate("counterexample", [0, 0], 12, out_path=str(first))
        cmd_generate("counterexample", [0, 0], 12, out_path=str(second))
        assert (tmp_path / "a.json.cert.txt").read_bytes() == (
            tmp_path / "b.json.cert.txt"
        ).read_bytes()


class TestGeneratorExhaustionPath:
    def test_exit_four(self, tmp_path, monkeypatch):
        import transversals.cli as cli_module
        from transversals.generators import RetryExhaustedError

        def exhausted(ks, seed, representation):
            raise RetryExhaustedError("forced")

        monkeypatch.setattr(cli_module, "gen_counterexample", exhausted)
        out = str(tmp_path / "x.json")
        code = main(["generate", "counterexample", "--ks", "0,0", "--seed", "1", "--out", out])
        assert code == 4


class TestTheoremViolationPath:
    def test_exit_three_dumps_the_instance(self, tmp_path, monkeypatch, capsys):
        import transversals.cli as cli_module
        from transversals.transversal import TheoremViolationError

        path = tmp_path / "inst.json"
        save_instance(str(path), interval_instance())

        def explode(instance):
            raise TheoremViolationError("forced for the triage path")

        monkeypatch.setattr(cli_module, "verify_theorem", explode)
        assert cmd_verify_theorem(str(path)) == 3
        printed = capsys.readouterr().out
        assert "THEOREM-VIOLATION" in printed
        assert '"dimension": 1' in printed  # full instance dumped for triage


class TestInseparableNegativePath:
    def test_exit_three(self, tmp_path, monkeypatch, capsys):
        import transversals.cli as cli_module
        from transversals.transversal import PartitionScan

        path = tmp_path / "apart.json"
        family = Family(
            1, (VPolytope((vec(0, 0),)), VPolytope((vec(1, 1),)), VPolytope((vec(2, 0),)))
        )
        save_instance(str(path), Instance(2, (family,)))
        monkeypatch.setattr(
            cli_module, "scan_partitions", lambda family: PartitionScan(None, {})
        )
        assert main(["transversal", str(path), "--family", "1"]) == EXIT_THEOREM_VIOLATION
        assert "partition {1}/{2,3} is inseparable" in capsys.readouterr().out


class TestUnwritableOutput:
    def test_generate_exits_two_naming_the_path(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        argv = ["generate", "random", "--ks", "1,1", "--seed", "1", "--out", str(out)]
        assert main(argv) == EXIT_PRECONDITION
        assert f"error: cannot write {out}:" in capsys.readouterr().out
        assert not (tmp_path / "missing").exists()

    def test_report_into_a_directory_leaves_no_temporary(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        save_instance(str(path), interval_instance())
        target = tmp_path / "reports"
        target.mkdir()
        code = main(["check-colorful", str(path), "--out", str(target)])
        assert code == EXIT_PRECONDITION
        assert f"error: cannot write {target}:" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["inst.json", "reports"]
        assert list(target.iterdir()) == []

    def test_fifo_is_left_in_place(self, tmp_path, capsys):
        out = tmp_path / "fifo.out"
        os.mkfifo(out)
        argv = ["generate", "random", "--ks", "1", "--seed", "1", "--out", str(out)]
        assert main(argv) == EXIT_PRECONDITION
        assert capsys.readouterr().out == f"error: cannot write {out}: not a regular file\n"
        assert stat.S_ISFIFO(os.stat(out).st_mode)
        assert [p.name for p in tmp_path.iterdir()] == ["fifo.out"]

    def test_certificate_ledger_fifo_is_left_in_place(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        ledger = tmp_path / "inst.json.cert.txt"
        os.mkfifo(ledger)
        argv = ["generate", "counterexample", "--ks", "1,0", "--seed", "5", "--out", str(out)]
        assert main(argv) == EXIT_PRECONDITION
        assert capsys.readouterr().out == f"error: cannot write {ledger}: not a regular file\n"
        assert stat.S_ISFIFO(os.stat(ledger).st_mode)
        assert not out.exists()

    def test_reports_get_the_mode_of_a_new_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        old = os.umask(0o022)
        try:
            argv = ["generate", "counterexample", "--ks", "1,0", "--seed", "5"]
            assert main(argv + ["--out", "inst.json"]) == EXIT_OK
            (tmp_path / "colorful.json").write_text("{}")
            os.chmod("colorful.json", 0o644)
            assert main(["check-colorful", "inst.json", "--out", "colorful.json"]) == EXIT_OK
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()}
        assert modes == {"inst.json": 0o644, "inst.json.cert.txt": 0o644, "colorful.json": 0o644}

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-colorful", "inst.json"],
            ["transversal", "inst.json", "--family", "1"],
            ["transversal", "apart.json", "--family", "1"],
            ["verify-theorem", "inst.json"],
            ["certificate", "inst.json"],
        ],
    )
    def test_no_result_is_printed_before_the_report_is_written(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        save_instance("inst.json", interval_instance())
        apart = Family(0, (segment([0], [1]), segment([2], [3])))
        save_instance("apart.json", Instance(1, (apart,)))
        out = tmp_path / "missing" / "r.json"
        assert main(argv + ["--out", str(out)]) == EXIT_PRECONDITION
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}:")


def long_literal_doc():
    """A one-dimensional instance whose first coordinate has 5000 digits,
    above CPython's default limit for integer strings."""
    return {
        "dimension": 1,
        "families": [
            {
                "k": 0,
                "sets": [
                    {"type": "vpolytope", "points": [["1" * 5000]]},
                    {"type": "vpolytope", "points": [["0"]]},
                ],
            }
        ],
    }


def fibonacci_points_doc(n):
    """One k = 0 family in dimension 1 of two one-point polytopes at
    F(n)/F(n+1) and F(n+1)/F(n+2), Fibonacci ratios whose gap's simplest
    offset has a continued fraction of about n terms."""
    fib = [0, 1]
    while len(fib) < n + 3:
        fib.append(fib[-1] + fib[-2])
    sets = [
        {"type": "vpolytope", "points": [[f"{fib[i]}/{fib[i + 1]}"]]} for i in (n, n + 1)
    ]
    return {"dimension": 1, "families": [{"k": 0, "sets": sets}]}


def crossing_segments_doc():
    """One k = 0 family of two crossing segments in the plane, (0,0)-(a,b)
    and (c,0)-(0,e).  Every literal is under the integer string limit, but
    the crossing point a*c*e/(a*e + b*c) (a, b) is far above it."""
    a, b, c, e = 10**3000 + 1, 10**3000 + 3, 10**2999 + 7, 10**2999 + 9

    def segment_doc(p, q):
        return {"type": "vpolytope", "points": [[str(x) for x in p], [str(x) for x in q]]}

    sets = [segment_doc((0, 0), (a, b)), segment_doc((c, 0), (0, e))]
    return {"dimension": 2, "families": [{"k": 0, "sets": sets}]}


class TestExitTable:
    @pytest.mark.parametrize(
        "error,code",
        [
            (InstanceFormatError, EXIT_PRECONDITION),
            (MalformedInputError, EXIT_PRECONDITION),
            (ReportWriteError, EXIT_PRECONDITION),
            (TheoremPreconditionError, EXIT_PRECONDITION),
            (UnsupportedRepresentationError, EXIT_PRECONDITION),
            (CertificateInconsistencyError, EXIT_THEOREM_VIOLATION),
            (RetryExhaustedError, EXIT_RETRY_EXHAUSTED),
            (AssertionError, EXIT_THEOREM_VIOLATION),
            (ZeroDivisionError, EXIT_THEOREM_VIOLATION),
        ],
    )
    def test_each_class_has_one_code_and_one_line(self, error, code, monkeypatch, capsys):
        def fail(*args):
            raise error("forced")

        monkeypatch.setattr(cli_module, "cmd_check_colorful", fail)
        assert main(["check-colorful", "inst.json"]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    def test_failed_substitution_guard_exits_three(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "ce.json")
        assert cmd_generate("counterexample", [0, 0], 3, out_path=path) == EXIT_OK
        capsys.readouterr()
        # Every audit's [V | 1] reads inconsistent, as for normals that no
        # functional settles, so the audit LP answers with stubbed weights.
        monkeypatch.setattr(certificate_module, "_integer_solve", lambda table, width: None)
        monkeypatch.setattr(
            certificate_module,
            "hull_weights",
            lambda blocks, groups: [[-1] * len(table) for table, _ in blocks],
        )
        assert main(["certificate", path]) == EXIT_THEOREM_VIOLATION
        printed = capsys.readouterr()
        assert printed.out.splitlines() == [
            "error: internal error: AssertionError: "
            "simplex produced weights outside the hull system"
        ]
        assert "in origin_in_hull" in printed.err  # the traceback, for triage

    def test_failed_functional_substitution_exits_three(self, tmp_path, monkeypatch, capsys):
        path = str(tmp_path / "ce.json")
        assert cmd_generate("counterexample", [0, 0], 3, out_path=path) == EXIT_OK
        capsys.readouterr()
        solve = certificate_module._integer_solve

        def corrupted(table, width):
            particulars, kernel, denominator = solve(table, width)
            return [[v + 1 for v in z] for z in particulars], kernel, denominator

        monkeypatch.setattr(certificate_module, "_integer_solve", corrupted)
        assert main(["certificate", path]) == EXIT_THEOREM_VIOLATION
        printed = capsys.readouterr()
        assert printed.out.splitlines() == [
            "error: internal error: AssertionError: "
            "Gordan functional fails the substitution check"
        ]
        assert "in origin_in_hull" in printed.err

    @pytest.mark.parametrize(
        "command", [["check-colorful"], ["transversal", "--family", "1"], ["certificate"]]
    )
    def test_literal_over_the_digit_limit_exits_two(self, command, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(long_literal_doc()))
        assert main([command[0], str(path), *command[1:]]) == EXIT_PRECONDITION
        (line,) = capsys.readouterr().out.splitlines()
        assert "families[0].sets[0].points[0]" in line
        assert f"{sys.get_int_max_str_digits()}-digit" in line
        assert "1" * 100 not in line

    @pytest.mark.parametrize(
        "text",
        [
            b"\xff\xfe{",
            ('{"dimension": ' + "1" * 5000 + "}").encode(),
            b"[" * 200_000 + b"]" * 200_000,
        ],
        ids=["not-utf-8", "long-json-integer", "deeply-nested"],
    )
    def test_undecodable_instance_exits_two(self, text, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_bytes(text)
        assert main(["check-colorful", str(path)]) == EXIT_PRECONDITION
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"error: {path}: ")

    def test_deep_continued_fraction_offset(self, tmp_path, monkeypatch, capsys):
        """The separator's offset, simplest between two ends of 837 digits,
        has about 4000 continued-fraction terms: found by a loop, not by
        recursion."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fib.json").write_text(json.dumps(fibonacci_points_doc(4000)))
        assert main(["transversal", "fib.json", "--family", "1"]) == EXIT_NEGATIVE
        assert "separated partition={1}/{2}" in capsys.readouterr().out
        assert main(["certificate", "fib.json"]) == EXIT_OK
        assert "CERTIFICATE-COMPLETE" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["transversal", "--family", "1"], ["certificate"]])
    def test_result_over_the_digit_limit_is_refused(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cross.json").write_text(json.dumps(crossing_segments_doc()))
        argv = [command[0], "cross.json", *command[1:], "--out", "r.json"]
        assert main(argv) == EXIT_PRECONDITION
        (line,) = capsys.readouterr().out.splitlines()
        assert line == (
            f"error: result exceeds the {sys.get_int_max_str_digits()}-digit "
            "integer string limit"
        )
        assert [p.name for p in tmp_path.iterdir()] == ["cross.json"]
        assert main(["check-colorful", "cross.json"]) == EXIT_OK


# The work ``full_certificate`` does after its member-count check, by the
# module names it calls them through.
CERTIFICATE_WORK = ("check_colorful", "scan_partitions", "assign_from_scan", "verify_claim")


def forbid_certificate_work(monkeypatch, names, message):
    """Make each of ``names`` in the certificate module raise ``message``,
    after checking that ``full_certificate`` still calls every one of them,
    so a refusal test cannot pass because the work moved to another name."""
    assert set(names) <= set(certificate_module.full_certificate.__code__.co_names)

    def forbidden(*args, **kwargs):
        raise AssertionError(message)

    for name in names:
        monkeypatch.setattr(certificate_module, name, forbidden)


class TestJoinBudget:
    def test_limit_is_inclusive_and_checked_first(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(certificate_module, "_JOIN_BUDGET", 144)
        at_limit = str(tmp_path / "c21.json")
        above = str(tmp_path / "c22.json")
        assert cmd_generate("counterexample", [2, 1], 5, out_path=at_limit) == EXIT_OK
        assert cmd_generate("counterexample", [2, 2], 5, out_path=above) == EXIT_OK
        assert main(["certificate", at_limit]) == EXIT_OK
        assert "verdict CERTIFICATE-COMPLETE" in capsys.readouterr().out

        forbid_certificate_work(
            monkeypatch,
            ("check_member_count",) + CERTIFICATE_WORK,
            "work started above the join budget",
        )
        assert main(["certificate", above]) == EXIT_PRECONDITION
        printed = capsys.readouterr().out
        assert "576 maximal simplices" in printed and "budget of 144" in printed


class TestMemberCount:
    def test_certificate_refuses_before_the_colorful_check(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "short.json"
        assert cmd_generate("counterexample", [2, 2], 3, out_path=str(path)) == EXIT_OK
        capsys.readouterr()
        doc = json.loads(path.read_text())
        doc["families"][1]["sets"].pop()
        path.write_text(json.dumps(doc))

        forbid_certificate_work(
            monkeypatch, CERTIFICATE_WORK, "work started before the member count"
        )
        assert main(["certificate", str(path)]) == EXIT_PRECONDITION
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["error: need exactly k+2 = 4 members, got 3"]


class TestEnumerationBudgets:
    def forbidden(self, *args, **kwargs):
        raise AssertionError("work started above an enumeration budget")

    def test_partition_limit_is_inclusive_and_checked_first(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(transversal_module, "_PARTITION_BUDGET", 15)
        assert len(partitions(5)) == 15
        path = str(tmp_path / "c10.json")
        assert cmd_generate("counterexample", [1, 0], 5, out_path=path) == EXIT_OK
        monkeypatch.setattr(transversal_module, "_PARTITION_BUDGET", 3)
        assert main(["transversal", path, "--family", "1"]) == EXIT_NEGATIVE
        capsys.readouterr()
        monkeypatch.setattr(transversal_module, "_PARTITION_BUDGET", 2)
        monkeypatch.setattr(transversal_module, "hull_certificate", self.forbidden)
        assert main(["transversal", path, "--family", "1"]) == EXIT_PRECONDITION
        printed = capsys.readouterr().out
        assert "3 partitions" in printed and "budget of 2" in printed

    def test_partition_limit_is_checked_before_the_scan(
        self, tmp_path, monkeypatch, capsys
    ):
        path = str(tmp_path / "c10.json")
        assert cmd_generate("counterexample", [1, 0], 5, out_path=path) == EXIT_OK
        monkeypatch.setattr(transversal_module, "_PARTITION_BUDGET", 2)
        monkeypatch.setattr(transversal_module, "hull_certificate", self.forbidden)
        for command in (["transversal", path, "--family", "1"], ["certificate", path]):
            capsys.readouterr()
            assert main(command) == EXIT_PRECONDITION
            printed = capsys.readouterr().out
            assert "3 partitions" in printed and "budget of 2" in printed

    def test_tuple_limit_is_inclusive_and_checked_first(
        self, tmp_path, monkeypatch, capsys
    ):
        at_limit = str(tmp_path / "r11.json")
        above = str(tmp_path / "r111.json")
        assert cmd_generate("random", [1, 1], 5, out_path=at_limit) == EXIT_OK
        assert cmd_generate("random", [1, 1, 1], 5, out_path=above) == EXIT_OK
        monkeypatch.setattr(transversal_module, "_TUPLE_BUDGET", 9)
        assert main(["check-colorful", at_limit]) == EXIT_OK
        assert "tuples=9 PASS" in capsys.readouterr().out
        monkeypatch.setattr(transversal_module, "common_point", self.forbidden)
        for command in ("check-colorful", "verify-theorem", "certificate"):
            assert main([command, above]) == EXIT_PRECONDITION
            printed = capsys.readouterr().out
            assert "27 member tuples" in printed and "budget of 9" in printed


    def forbid_generator_work(self, monkeypatch):
        """Sampling starts with a derived seed, and the rank checks and tuple
        solves of a counterexample with the general-position checks."""
        monkeypatch.setattr(generators_module, "derive_seed", self.forbidden)
        monkeypatch.setattr(
            generators_module, "_general_position_checks", self.forbidden
        )

    def test_generator_subset_limit_is_inclusive_and_checked_first(
        self, tmp_path, monkeypatch, capsys
    ):
        # --ks 1,0 places 5 points in dimension 3: C(5, 3) = 10 subsets
        argv = ["generate", "counterexample", "--ks", "1,0", "--seed", "5", "--out"]
        monkeypatch.setattr(generators_module, "_SUBSET_BUDGET", 10)
        assert main(argv + [str(tmp_path / "at.json")]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(generators_module, "_SUBSET_BUDGET", 9)
        self.forbid_generator_work(monkeypatch)
        assert main(argv + [str(tmp_path / "above.json")]) == EXIT_PRECONDITION
        printed = capsys.readouterr().out
        assert "10 point subsets" in printed and "budget of 9" in printed
        assert not (tmp_path / "above.json").exists()
        with pytest.raises(MalformedInputError, match="10 point subsets"):
            counterexample_from_points([1, 0], [vec(0, 0, 0)] * 5)

    def test_generator_tuple_limit_is_inclusive_and_checked_first(
        self, tmp_path, monkeypatch, capsys
    ):
        # every generator at --ks 1,1 has 3 * 3 = 9 member tuples
        kinds = ("counterexample", "planted", "random")
        monkeypatch.setattr(transversal_module, "_TUPLE_BUDGET", 9)
        for kind in kinds:
            out = str(tmp_path / f"{kind}.json")
            assert main(["generate", kind, "--ks", "1,1", "--seed", "5", "--out", out]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.setattr(transversal_module, "_TUPLE_BUDGET", 8)
        self.forbid_generator_work(monkeypatch)
        out = str(tmp_path / "above.json")
        for kind in kinds:
            assert main(["generate", kind, "--ks", "1,1", "--seed", "5", "--out", out]) == EXIT_PRECONDITION
            printed = capsys.readouterr().out
            assert "9 member tuples" in printed and "budget of 8" in printed
        assert not (tmp_path / "above.json").exists()
        with pytest.raises(MalformedInputError, match="9 member tuples"):
            counterexample_from_points([1, 1], [vec(0, 0, 0, 0)] * 6)

    @pytest.mark.parametrize(
        "kind, at_limit, above",
        [
            ("counterexample", ([15], 0), ([16], 0)),
            ("random", ([16], 0), ([17], 0)),
            ("planted", (16, [1, 1], 0), (17, [1, 1], 0)),
        ],
    )
    def test_generator_dimension_limit_is_inclusive_and_checked_first(
        self, kind, at_limit, above, monkeypatch
    ):
        generate = {
            "counterexample": generators_module.gen_counterexample,
            "random": generators_module.gen_colorful_random,
            "planted": generators_module.gen_planted,
        }[kind]
        assert generators_module._DIMENSION_BUDGET == 16
        self.forbid_generator_work(monkeypatch)
        with pytest.raises(AssertionError, match="work started"):
            generate(*at_limit)
        with pytest.raises(MalformedInputError, match="17 ambient dimensions"):
            generate(*above)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["counterexample", "--ks", "26,26,26"],
                "the counterexample has 81 ambient dimensions, above the budget of 16",
            ),
            (
                ["random", "--ks", "99998"],
                "the random instance has 99998 ambient dimensions, above the budget of 16",
            ),
            (
                ["planted", "--ks", "1,1", "--dim", "1000"],
                "the planted instance has 1000 ambient dimensions, above the budget of 16",
            ),
        ],
    )
    def test_generator_dimension_limit_exits_two_before_sampling(
        self, argv, message, tmp_path, monkeypatch, capsys
    ):
        self.forbid_generator_work(monkeypatch)
        out = tmp_path / "inst.json"
        assert main(["generate", *argv, "--seed", "5", "--out", str(out)]) == EXIT_PRECONDITION
        assert capsys.readouterr().out.splitlines() == [f"error: {message}"]
        assert list(tmp_path.iterdir()) == []


def one_body_doc(k):
    """A one-family instance on the line whose ``k`` is given as JSON text."""
    return (
        '{"dimension": 1, "families": [{"k": %s, "sets": '
        '[{"type": "vpolytope", "points": [["0"]]}]}]}' % k
    )


class TestOversizedCounts:
    """A count far above its budget is neither formed nor printed in full:
    each of these exits 2 with one ``error:`` line, and quickly."""

    MORE_THAN_JOIN = (
        "the certificate join has more than 100000 maximal simplices, "
        "above the budget of 100000"
    )

    def refuse(self, argv, capsys):
        started = time.perf_counter()
        assert main(argv) == EXIT_PRECONDITION
        assert time.perf_counter() - started < 1.0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        return lines[0]

    @pytest.mark.parametrize("k", ["100000", "100000000", "9" * 4300])
    def test_certificate_join(self, k, tmp_path, capsys):
        path = tmp_path / "big_k.json"
        path.write_text(one_body_doc(k))
        line = self.refuse(["certificate", str(path)], capsys)
        assert line == f"error: {self.MORE_THAN_JOIN}"

    def test_transversal_member_count(self, tmp_path, capsys):
        path = tmp_path / "big_k.json"
        path.write_text(one_body_doc("9" * 4300))
        line = self.refuse(["transversal", str(path), "--family", "1"], capsys)
        assert line == "error: k+2 exceeds the 4300-digit integer string limit"

    def test_counterexample_subsets(self, tmp_path, capsys):
        out = tmp_path / "inst.json"
        ks = ",".join(["1"] * 6000)
        argv = ["generate", "counterexample", "--ks", ks, "--seed", "0", "--out", str(out)]
        line = self.refuse(argv, capsys)
        assert line == (
            "error: the counterexample has more than 100000 point subsets to "
            "rank-check, above the budget of 100000"
        )
        assert list(tmp_path.iterdir()) == []

    def test_verify_theorem_dimension(self, tmp_path, capsys):
        body = '{"type": "vpolytope", "points": [["0"]]}'
        family = '{"k": %s, "sets": [%s]}' % ("9" * 4300, body)
        path = tmp_path / "big_k.json"
        path.write_text('{"dimension": 1, "families": [%s, %s]}' % (family, family))
        line = self.refuse(["verify-theorem", str(path)], capsys)
        assert line == "error: n+m-1 exceeds the 4300-digit integer string limit"

    def test_counts_below_the_limit_stay_exact(self, monkeypatch):
        monkeypatch.setattr(transversal_module, "_PARTITION_BUDGET", 10)
        with pytest.raises(MalformedInputError, match="has 131071 partitions"):
            partitions(18)
        with pytest.raises(MalformedInputError, match="has more than 10 partitions"):
            partitions(10**6)


class TestEntryPoint:
    def test_main_dispatch(self, tmp_path):
        path = tmp_path / "r.json"
        code = main(["generate", "random", "--ks", "0,0", "--seed", "1", "--out", str(path)])
        assert code == EXIT_OK
        assert main(["check-colorful", str(path)]) == EXIT_OK
        assert main(["verify-theorem", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("ks", ["1,,2", "1,2,"])
    def test_empty_ks_item_is_rejected(self, tmp_path, ks):
        path = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "random", "--ks", ks, "--seed", "1", "--out", str(path)])
        assert exc.value.code == EXIT_PRECONDITION
        assert not path.exists()

    @pytest.mark.parametrize("ks", ["1_0", " 1,+2", "\u0661,2", "1, 2", "-1", "1.0"])
    def test_non_digit_ks_item_is_rejected(self, tmp_path, capsys, ks):
        path = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(["generate", "random", "--ks", ks, "--seed", "1", "--out", str(path)])
        assert exc.value.code == EXIT_PRECONDITION
        assert f"bad --ks list {ks!r}" in capsys.readouterr().err
        assert not path.exists()

    def test_ks_items_are_ascii_digits(self):
        assert _parse_ks("0,10,007") == [0, 10, 7]

    @pytest.mark.parametrize(
        "option,value",
        [
            ("--seed", "1_0"),
            ("--seed", "١٠"),
            ("--seed", "+1"),
            ("--seed", " 1"),
            ("--seed", "1.0"),
            ("--dim", "٣"),
            ("--dim", "3_0"),
        ],
    )
    def test_non_digit_generate_integer_is_rejected(self, tmp_path, capsys, option, value):
        path = tmp_path / "r.json"
        argv = ["generate", "planted", "--ks", "1,1", "--seed", "1", "--out", str(path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, value])
        assert exc.value.code == EXIT_PRECONDITION
        assert f"argument {option}: invalid integer {value!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option", ["--seed", "--dim", "--ks"])
    def test_integer_over_the_digit_limit_is_not_echoed(self, tmp_path, capsys, option):
        path = tmp_path / "r.json"
        argv = ["generate", "planted", "--ks", "1,1", "--seed", "1", "--out", str(path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, "7" * 5000])
        assert exc.value.code == EXIT_PRECONDITION
        err = capsys.readouterr().err
        assert f"argument {option}: integer exceeds the" in err and "7" * 100 not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["١", "1_0", "+1"])
    def test_non_digit_family_is_rejected(self, tmp_path, capsys, value):
        path = tmp_path / "inst.json"
        save_instance(str(path), interval_instance())
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["transversal", str(path), "--family", value, "--out", str(out)])
        assert exc.value.code == EXIT_PRECONDITION
        assert f"argument --family: invalid integer {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_integer_options_take_ascii_digits_and_a_minus_sign(self, tmp_path):
        path = str(tmp_path / "r.json")
        argv = ["generate", "planted", "--ks", "1,1", "--seed", "-7", "--dim", "03"]
        args = build_parser().parse_args(argv + ["--out", path])
        assert (args.seed, args.dim) == (-7, 3)
        args = build_parser().parse_args(["transversal", path, "--family", "2"])
        assert args.family == 2

    @pytest.mark.parametrize(
        "kind,extra",
        [("random", []), ("counterexample", []), ("counterexample", ["--representation", "flats"])],
    )
    def test_dim_outside_planted_is_refused(self, tmp_path, capsys, kind, extra):
        path = tmp_path / "inst.json"
        argv = ["generate", kind, "--ks", "1,0", "--seed", "1", "--dim", "7", "--out", str(path)]
        assert main(argv + extra) == EXIT_PRECONDITION
        assert capsys.readouterr().out.splitlines() == [
            f"error: --dim applies to the planted kind only, not {kind}"
        ]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "kind,extra",
        [("random", []), ("planted", []), ("planted", ["--dim", "3"])],
    )
    @pytest.mark.parametrize("representation", ["flats", "truncated"])
    def test_representation_outside_counterexample_is_refused(
        self, tmp_path, capsys, kind, extra, representation
    ):
        path = tmp_path / "inst.json"
        argv = ["generate", kind, "--ks", "1,1", "--seed", "0", "--out", str(path)]
        assert main(argv + extra + ["--representation", representation]) == EXIT_PRECONDITION
        assert capsys.readouterr().out.splitlines() == [
            f"error: --representation applies to the counterexample kind only, not {kind}"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_counterexample_representation_defaults_to_truncated(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        argv = ["generate", "counterexample", "--ks", "1,0", "--seed", "1", "--out"]
        assert main(argv + [str(first)]) == EXIT_OK
        assert main(argv + [str(second), "--representation", "truncated"]) == EXIT_OK
        assert json.loads(first.read_text())["meta"]["representation"] == "truncated"
        assert first.read_bytes() == second.read_bytes()

    def test_dim_still_sets_the_planted_dimension(self, tmp_path):
        path = tmp_path / "inst.json"
        argv = ["generate", "planted", "--ks", "1,0", "--seed", "1", "--dim", "4"]
        assert main(argv + ["--out", str(path)]) == EXIT_OK
        doc = json.loads(path.read_text())
        assert doc["dimension"] == 4 and doc["meta"]["dim"] == 4

    def test_jobs_flag_is_rejected(self, tmp_path):
        path = tmp_path / "inst.json"
        save_instance(str(path), interval_instance())
        with pytest.raises(SystemExit) as exc:
            main(["check-colorful", str(path), "--jobs", "2"])
        assert exc.value.code == EXIT_PRECONDITION

    def test_console_script_subprocess(self, tmp_path):
        path = tmp_path / "inst.json"
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "transversals.cli",
                "generate",
                "random",
                "--ks",
                "1,0",
                "--seed",
                "0",
                "--out",
                str(path),
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK, result.stdout + result.stderr
        result = subprocess.run(
            [sys.executable, "-m", "transversals.cli", "verify-theorem", str(path)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == EXIT_OK
        assert "theorem family=" in result.stdout

    def test_one_parser_per_process_matches_fresh_runs(self, tmp_path, capsys):
        """The parser is built once and reused, so a refused argument list
        must leave nothing behind for the calls after it."""
        path = str(tmp_path / "inst.json")
        commands = [
            ["generate", "random", "--ks", "1_0", "--seed", "1", "--out", path],
            ["generate", "random", "--ks", "1,0", "--seed", "1", "--out", path],
            ["check-colorful", path],
        ]
        in_process = []
        for argv in commands:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            printed = capsys.readouterr()
            in_process.append((code, printed.out, printed.err))
        fresh = []
        for argv in commands:
            result = subprocess.run(
                [sys.executable, "-m", "transversals.cli", *argv],
                capture_output=True,
                text=True,
            )
            fresh.append((result.returncode, result.stdout, result.stderr))
        assert in_process == fresh
        assert [code for code, _, _ in fresh] == [EXIT_PRECONDITION, EXIT_OK, EXIT_OK]


class TestReportLoaders:
    @pytest.mark.parametrize(
        "doc,location",
        [
            ({}, "flat: missing"),
            ({"flat": {"base": ["0"]}}, "flat.directions: missing"),
            ({"flat": 3}, "flat: expected an object"),
            ([], "top level: expected an object"),
        ],
    )
    def test_malformed_witness_names_the_field(self, doc, location):
        with pytest.raises(InstanceFormatError, match=__import__("re").escape(location)):
            witness_from_json(doc)


def _fuzz_documents():
    """Valid documents to mutate: (loader, document, keys it may omit)."""
    mixed = Instance(
        2,
        (
            Family(
                1,
                (
                    segment([0, 0], [1, 0]),
                    VPolytope((vec(2, 2),)),
                    AffineFlat(vec(0, 1), (vec(1, -3),)),
                ),
            ),
        ),
    )
    collinear = Family(
        1, (VPolytope((vec(0, 0),)), VPolytope((vec(1, 0),)), VPolytope((vec(2, 0),)))
    )
    witness = witness_to_json(k_transversal(collinear))
    return [
        (instance_from_json, instance_to_json(interval_instance()), set()),
        (instance_from_json, instance_to_json(mixed, {"seed": 1}), {"directions"}),
        (witness_from_json, witness, set()),
    ]


def _locations(node, path=()):
    """Every location below ``node`` except inside ``meta``, whose content
    is free-form."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        if key != "meta":
            yield path + (key,), child
            yield from _locations(child, path + (key,))


_JSON_VALUES = [None, True, False, 0, 7, 1.5, "x", "1/2", [], [["0"]], {}, {"k": 0}]


class TestLoaderFuzz:
    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_mutated_documents_raise_instance_format_error(self, data):
        loader, doc, optional = data.draw(st.sampled_from(_fuzz_documents()))
        mutated = json.loads(json.dumps(doc))
        path, original = data.draw(st.sampled_from(list(_locations(mutated))))
        parent = mutated
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        droppable = isinstance(key, str) and key not in optional
        wrong = [v for v in _JSON_VALUES if type(v) is not type(original)]
        if droppable and data.draw(st.booleans()):
            del parent[key]
        else:
            parent[key] = data.draw(st.sampled_from(wrong))
        with pytest.raises(InstanceFormatError):
            loader(mutated)


class TestTracedColorfulLps:
    def test_benchmark_trace_sees_every_colourful_lp(self, tmp_path, monkeypatch, capsys):
        """The benchmark's tracer wraps the package's names in its ``TRACED``
        table; every colourful hull LP of ``check-colorful`` must still pass
        through ``convex.common_point`` and ``exactla.standard_form_feasible``
        for its traced runs to book it.  Every one of the 27 tuples of this
        instance solves one LP."""
        path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("bench_tracing_for_cli", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        monkeypatch.chdir(tmp_path)
        argv = ["generate", "random", "--ks", "1,1,1", "--seed", "0", "--out", "inst.json"]
        assert main(argv) == EXIT_OK
        with tracing.Tracer() as tracer:
            tracer.active = True
            assert cli_module.main(["check-colorful", "inst.json"]) == EXIT_OK
        calls = tracer.summary()["calls"]
        assert calls["convex.common_point"] == 27
        assert calls["exactla.standard_form_feasible"] == 27
        assert calls["cli.main"] == 1
        capsys.readouterr()
