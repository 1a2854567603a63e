"""Acceptance suite: every criterion below is exact (zero tolerance) and
prints one PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v``.
"""

import itertools
import random

from transversals.certificate import (
    CERTIFICATE_COMPLETE,
    THEOREM_CONFIRMED,
    build_chain_complex,
    full_certificate,
    involution,
)
from transversals.cli import (
    EXIT_OK,
    cmd_certificate,
    cmd_check_colorful,
    cmd_generate,
    cmd_verify_theorem,
    save_instance,
)
from transversals.convex import VPolytope, common_point, contains
from transversals.exactla import QVector, positive_functional, strict_separation
from transversals.generators import (
    TRUNCATED,
    gen_colorful_random,
    gen_counterexample,
)
from transversals.transversal import (
    Family,
    Instance,
    check_colorful,
    k_transversal,
    validate_witness,
    verify_theorem,
)

from test_transversal import line_stabs_all_segments, random_polytope

PARAM_SETS = [(0, 0), (1, 0), (1, 1), (0, 0, 0), (1, 1, 1), (2, 1)]
CERTIFICATE_SETS = [(0, 0), (1, 1), (0, 0, 0), (1, 1, 1)]
EXPECTED_SIMPLEX_COUNTS = {(0, 0): 4, (1, 1): 36, (0, 0, 0): 8, (1, 1, 1): 216}


def announce(number, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {name}")
    assert ok, f"criterion {number} ({name}) failed"


def vec(*entries):
    return QVector(entries)


def test_criterion_1_theorem_suite(tmp_path):
    """600 random colorful instances at the guarantee dimension all verify."""
    path = tmp_path / "instance.json"
    failures = []
    for ks in PARAM_SETS:
        for seed in range(100):
            instance = gen_colorful_random(list(ks), seed)
            save_instance(str(path), instance)
            code = cmd_verify_theorem(str(path))
            if code != EXIT_OK:
                failures.append((ks, seed, code))
    announce(1, f"theorem suite, 600 instances, failures={failures}", not failures)


def test_criterion_2_optimality_suite():
    """Counterexamples one dimension up: colorful holds, no transversals."""
    failures = []
    for ks in PARAM_SETS:
        for seed in range(50):
            ce = gen_counterexample(list(ks), seed, TRUNCATED)
            failing = check_colorful(ce.instance, points=False).failing_tuple
            if failing is not None:
                failures.append((ks, seed, f"colorful fails at tuple {failing}"))
            spans = [c for c in ce.checks if c.name == "family-affine-dim"]
            if len(spans) != len(ks) or not all(c.passed for c in spans):
                failures.append((ks, seed, "a family-affine-dim record failed"))
            for i, family in enumerate(ce.instance.families, start=1):
                if k_transversal(family) is not None:
                    failures.append((ks, seed, f"family {i} has a transversal"))
    announce(2, f"optimality suite, 300 instances, failures={failures}", not failures)


def test_criterion_3_oracle_equivalence():
    """Partition decision agrees with two independent oracles."""
    rng = random.Random(160218)
    disagreements = 0
    for _ in range(200):
        segments = [
            (
                vec(rng.randint(-9, 9), rng.randint(-9, 9)),
                vec(rng.randint(-9, 9), rng.randint(-9, 9)),
            )
            for _ in range(3)
        ]
        family = Family(1, tuple(VPolytope(s) for s in segments))
        if (k_transversal(family) is not None) != line_stabs_all_segments(segments):
            disagreements += 1
    for _ in range(200):
        dim = rng.choice([1, 2, 3])
        family = Family(0, (random_polytope(rng, dim), random_polytope(rng, dim)))
        if (k_transversal(family) is not None) != (
            common_point(family.bodies) is not None
        ):
            disagreements += 1
    announce(3, f"oracle equivalence, 400 decisions, disagreements={disagreements}",
             disagreements == 0)


def test_criterion_4_positive_functional():
    """1000 random two-sided systems; the constructed functional is exactly
    positive every time."""
    rng = random.Random(90125)
    failures = 0
    produced = 0
    while produced < 1000:
        dim = rng.choice([1, 2, 3, 4])
        above = vec(*[rng.randint(-30, 30) for _ in range(dim)])
        below = vec(*[rng.randint(-30, 30) for _ in range(dim)])
        normals = []
        offsets = []
        for _ in range(rng.randint(1, 6)):
            normal = vec(*[rng.randint(-10, 10) for _ in range(dim)])
            gap = above.dot(normal) - below.dot(normal)
            if gap == 0:
                continue
            if gap < 0:
                normal = -normal
            lo, hi = below.dot(normal), above.dot(normal)
            offsets.append(lo + (hi - lo) * rng.randint(1, 9) / 10)
            normals.append(normal)
        if not normals:
            continue
        produced += 1
        try:
            result = positive_functional(normals, offsets, above, below)
        except Exception:
            failures += 1
            continue
        if not all(result.dot(n) > 0 for n in normals):
            failures += 1
    announce(4, f"positive functional, 1000 systems, failures={failures}",
             failures == 0)


def test_criterion_5_certificate_suite():
    """Structural sphere checks and the claim on every maximal simplex."""
    problems = []
    for ks in CERTIFICATE_SETS:
        n, m = len(ks), sum(ks)
        for i, k in enumerate(ks, start=1):
            complex_ = build_chain_complex(k)
            if len(complex_.vertices) != 2 ** (k + 2) - 2:
                problems.append((ks, f"vertex count family {i}"))
            if complex_.euler_characteristic != 1 + (-1) ** k:
                problems.append((ks, f"euler family {i}"))
            for v in complex_.vertices:
                image = involution(v, k + 2)
                if image == v or involution(image, k + 2) != v:
                    problems.append((ks, f"involution family {i}"))
                    break
        ce = gen_counterexample(list(ks), seed=0, representation=TRUNCATED)
        report = full_certificate(ce.instance)
        if report.verdict != CERTIFICATE_COMPLETE:
            problems.append((ks, f"verdict {report.verdict}"))
        if not all(c.passed for c in report.checks):
            problems.append((ks, "a ledger check failed"))
        simplices = [c for c in report.checks if c.name == "claim-simplex"]
        if len(simplices) != EXPECTED_SIMPLEX_COUNTS[ks]:
            problems.append((ks, f"simplex count {len(simplices)}"))
        join_checks = [c for c in report.checks if c.name == "join-euler"]
        expected = 1 + (-1) ** (n + m - 1)
        if not join_checks or f"expected={expected}" not in join_checks[0].params:
            problems.append((ks, "join euler"))
        antipodal = [c for c in report.checks if c.name == "antipodality"]
        if len(antipodal) != n or not all(c.passed for c in antipodal):
            problems.append((ks, "antipodality"))
    announce(5, f"certificate suite, problems={problems}", not problems)


def test_criterion_6_dichotomy():
    """Guarantee dimension always confirms the theorem; one dimension up the
    full certificate always completes."""
    problems = []
    for i in range(100):
        ks = PARAM_SETS[i % len(PARAM_SETS)]
        instance = gen_colorful_random(list(ks), seed=5000 + i)
        report = full_certificate(instance)
        if report.verdict != THEOREM_CONFIRMED:
            problems.append(("random", ks, i, report.verdict))
    for ks in CERTIFICATE_SETS:
        for seed in range(3):
            ce = gen_counterexample(list(ks), seed, TRUNCATED)
            report = full_certificate(ce.instance)
            if report.verdict != CERTIFICATE_COMPLETE:
                problems.append(("counterexample", ks, seed, report.verdict))
    announce(6, f"dichotomy, problems={problems}", not problems)


def fixture_separating_pair_makes_everyone_cross():
    """Two disjoint sets in one family force every member of the other
    family across their separating hyperplane."""
    left = VPolytope((vec(-2, -1), vec(-2, 1)))
    right = VPolytope((vec(2, -1), vec(2, 1)))
    crossers = tuple(
        VPolytope((vec(-2, y), vec(2, y))) for y in (-1, 0, 1)
    )
    instance = Instance(2, (Family(1, crossers), Family(0, (left, right))))
    ok = True
    report = verify_theorem(instance)
    validate_witness(instance.families[report.family_index - 1], report.witness)
    separation = strict_separation(left.generators, right.generators)
    ok = ok and separation is not None
    normal, offset = separation
    for member in crossers:
        values = [normal.dot(g) for g in member.generators]
        ok = ok and min(values) < offset < max(values)
    return ok


def fixture_one_pair_must_intersect():
    """Three families of two plane sets with the colorful property: some
    family's two members share a point."""
    anchors = {}
    coords = [(0, 0), (2, 0), (0, 2), (2, 2), (4, 0), (6, 0), (4, 2), (6, 2)]
    for selector, xy in zip(itertools.product((1, 2), repeat=3), coords):
        anchors[selector] = vec(*xy)
    families = []
    for axis in range(3):
        members = tuple(
            VPolytope(
                tuple(p for t, p in sorted(anchors.items()) if t[axis] == j)
            )
            for j in (1, 2)
        )
        families.append(Family(0, members))
    instance = Instance(2, tuple(families))
    report = verify_theorem(instance)
    family = instance.families[report.family_index - 1]
    meet = common_point(family.bodies)
    return meet is not None and all(contains(b, meet) for b in family.bodies)


def fixture_red_blue_line_transversal():
    """Three red and three blue sets in 3-space, every red meets every blue:
    one class gets a line transversal."""
    red = tuple(
        VPolytope(tuple(vec(i, j, i * j) for j in range(3))) for i in range(3)
    )
    blue = tuple(
        VPolytope(tuple(vec(i, j, i * j) for i in range(3))) for j in range(3)
    )
    instance = Instance(3, (Family(1, red), Family(1, blue)))
    report = verify_theorem(instance)
    family = instance.families[report.family_index - 1]
    validate_witness(family, report.witness)
    flat = report.witness.flat
    ok = flat.dimension <= 1
    for idx, anchor in report.witness.anchor_points:
        ok = ok and contains(family.bodies[idx - 1], anchor) and contains(flat, anchor)
    return ok


def test_criterion_7_remark_fixtures():
    results = {
        "separating-pair": fixture_separating_pair_makes_everyone_cross(),
        "intersecting-pair": fixture_one_pair_must_intersect(),
        "red-blue": fixture_red_blue_line_transversal(),
    }
    announce(7, f"remark fixtures, results={results}", all(results.values()))


def test_criterion_8_determinism(tmp_path):
    problems = []
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    for kind, kwargs in [
        ("counterexample", {"representation": "truncated"}),
        ("counterexample", {"representation": "flats"}),
        ("random", {}),
        ("planted", {"dim": 3}),
    ]:
        cmd_generate(kind, [1, 1], 13, out_path=str(first), **kwargs)
        cmd_generate(kind, [1, 1], 13, out_path=str(second), **kwargs)
        if first.read_bytes() != second.read_bytes():
            problems.append(("generator", kind, kwargs))

    instance_path = tmp_path / "inst.json"
    cmd_generate("random", [1, 1], 99, out_path=str(instance_path))
    report_a, report_b = tmp_path / "r1.json", tmp_path / "r2.json"
    for command in (cmd_check_colorful, cmd_verify_theorem, cmd_certificate):
        code_a = command(str(instance_path), str(report_a))
        code_b = command(str(instance_path), str(report_b))
        if code_a != code_b or report_a.read_bytes() != report_b.read_bytes():
            problems.append(("report", command.__name__))

    ce_path_a, ce_path_b = tmp_path / "ce1.json", tmp_path / "ce2.json"
    cmd_generate("counterexample", [0, 0, 0], 4, out_path=str(ce_path_a))
    cmd_generate("counterexample", [0, 0, 0], 4, out_path=str(ce_path_b))
    cert_a, cert_b = tmp_path / "c1.json", tmp_path / "c2.json"
    cmd_certificate(str(ce_path_a), str(cert_a))
    cmd_certificate(str(ce_path_b), str(cert_b))
    if cert_a.read_bytes() != cert_b.read_bytes():
        problems.append(("certificate-report",))
    announce(8, f"determinism, problems={problems}", not problems)
