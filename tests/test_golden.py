"""Golden SHA-256 digests of command reports.

Each pipeline generates an instance from a fixed seed and runs the report
commands on it through ``main``.  The digest of every file a command writes,
and of everything it prints, is compared with a recorded value, so any change
to a decision or to a report byte fails here.  The theorem-mode instance has
coordinates with denominators up to 8, so its LPs have fractional entries;
the counterexample instances exercise the rank certificates, the negative
transversal ledger and the join certificate.  The three ``generate``-only
pipelines pin the general-position ledger and both representations at
``--ks 1,1,1,1`` (495 subsets, 81 tuples), ``--ks 2,2,2`` (220 subsets,
64 tuples, flats) and ``--ks 1,1,1,1,1`` (3003 subsets of 15 points in
dimension 10); the last pipeline pins ``--ks 2,2,2,2,1,1`` in dimension 16,
the highest the generators admit (74 613 subsets, a 76 923-line ledger).  The ``--ks 2,1`` counterexample
checks the claim on 144 join simplices and audits 15 of them.  Its flats
twin decides all 12 colourful tuples as intersections of affine flats, with
no LP, and gets the same tuple points; ``transversal`` and ``certificate``
refuse its flats with exit 2.  The ``--ks 2,2`` counterexample checks the
claim on 576 join simplices, and both of its families have the same subsets,
so the same separator keys.  The ``--ks 3,1`` counterexample checks the
claim on 720 join simplices and audits 72 of them.  The ``--ks 1,1,1``
counterexample is the one three-family join: it checks the claim on 216
join simplices and audits 22 of them.  The ``--ks 1,1,1,1`` counterexample
is the four-family join (1296 join simplices, 130 audits) in dimension 8,
where each colourful hull LP is 28 x 108; every tuple's members share one
generator, their only common point, so its colourful checks solve no LP.
The scaled ``--ks 1,1`` counterexample is the one pipeline whose colourful
tuples need LPs: every body is scaled by 2 about the average of its
generators, so each still contains its old self and every tuple still
meets, but no tuple's members list a generator in common.  Its
``check-colorful`` and ``certificate`` both solve all 9 tuple LPs.

Each pipeline also records every distinct ``(rows, rhs)`` system the
phase-one simplex receives, as the integer table ``[rows | rhs]`` it pivots
on: ``exactla._integer_rows``, the rows times the lcm of every denominator
in the system.  That table is the same whether the system arrives as
Fractions or already scaled to integers.  The digest of that sorted set is
compared too, so a system builder that reorders columns or rows, or scales
them differently, fails here even when it happens to find the same
witnesses.  The certificate's audits solve no LP
when a Gordan functional settles them, which it does on every audited
simplex of these instances, so the six certificate pipelines record only
their partition-scan and colourful systems: each set is a subset of the
one recorded when every audit solved its LP (6 -> 4, 25 -> 10, 72 -> 14,
90 -> 18, 31 -> 9 and 142 -> 12 systems).
"""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from transversals import exactla
from transversals import transversal as transversal_module
from transversals.certificate import NormalAssignment, assign_normals
from transversals.cli import EXIT_NEGATIVE, EXIT_OK, EXIT_PRECONDITION, load_instance, main
from transversals.exactla import strict_separation
from transversals.transversal import partitions

THEOREM = [
    (["generate", "random", "--ks", "1,1", "--seed", "3", "--out", "inst.json"], EXIT_OK),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (["verify-theorem", "inst.json", "--out", "theorem.json"], EXIT_OK),
    (["transversal", "inst.json", "--family", "1", "--out", "family1.json"], EXIT_OK),
    (["transversal", "inst.json", "--family", "2", "--out", "family2.json"], EXIT_OK),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]

COUNTEREXAMPLE = [
    (
        ["generate", "counterexample", "--ks", "1,0", "--seed", "5", "--out", "inst.json"],
        EXIT_OK,
    ),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (["verify-theorem", "inst.json", "--out", "theorem.json"], EXIT_PRECONDITION),
    (
        ["transversal", "inst.json", "--family", "1", "--out", "family1.json"],
        EXIT_NEGATIVE,
    ),
    (
        ["transversal", "inst.json", "--family", "2", "--out", "family2.json"],
        EXIT_NEGATIVE,
    ),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]

JOIN = [
    (
        ["generate", "counterexample", "--ks", "2,1", "--seed", "5", "--out", "inst.json"],
        EXIT_OK,
    ),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (
        ["transversal", "inst.json", "--family", "1", "--out", "family1.json"],
        EXIT_NEGATIVE,
    ),
    (
        ["transversal", "inst.json", "--family", "2", "--out", "family2.json"],
        EXIT_NEGATIVE,
    ),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]

JOIN_2_2 = [
    (
        ["generate", "counterexample", "--ks", "2,2", "--seed", "5", "--out", "inst.json"],
        EXIT_OK,
    ),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (
        ["transversal", "inst.json", "--family", "1", "--out", "family1.json"],
        EXIT_NEGATIVE,
    ),
    (
        ["transversal", "inst.json", "--family", "2", "--out", "family2.json"],
        EXIT_NEGATIVE,
    ),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]

JOIN_3_1 = [
    (
        ["generate", "counterexample", "--ks", "3,1", "--seed", "5", "--out", "inst.json"],
        EXIT_OK,
    ),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (
        ["transversal", "inst.json", "--family", "1", "--out", "family1.json"],
        EXIT_NEGATIVE,
    ),
    (
        ["transversal", "inst.json", "--family", "2", "--out", "family2.json"],
        EXIT_NEGATIVE,
    ),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]

JOIN_1_1_1 = [
    (
        ["generate", "counterexample", "--ks", "1,1,1", "--seed", "5", "--out", "inst.json"],
        EXIT_OK,
    ),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (
        ["transversal", "inst.json", "--family", "1", "--out", "family1.json"],
        EXIT_NEGATIVE,
    ),
    (
        ["transversal", "inst.json", "--family", "2", "--out", "family2.json"],
        EXIT_NEGATIVE,
    ),
    (
        ["transversal", "inst.json", "--family", "3", "--out", "family3.json"],
        EXIT_NEGATIVE,
    ),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]

GENERATE = [
    (
        ["generate", "counterexample", "--ks", "1,1,1,1", "--seed", "2", "--out", "inst.json"],
        EXIT_OK,
    ),
]

GENERATE_DEEP = [
    (
        ["generate", "counterexample", "--ks", "1,1,1,1,1", "--seed", "0", "--out", "inst.json"],
        EXIT_OK,
    ),
]

GENERATE_FLATS = [
    (
        [
            "generate",
            "counterexample",
            "--ks",
            "2,2,2",
            "--representation",
            "flats",
            "--seed",
            "7",
            "--out",
            "inst.json",
        ],
        EXIT_OK,
    ),
]

FLATS = [
    (
        [
            "generate",
            "counterexample",
            "--ks",
            "2,1",
            "--seed",
            "5",
            "--representation",
            "flats",
            "--out",
            "inst.json",
        ],
        EXIT_OK,
    ),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (
        ["transversal", "inst.json", "--family", "1", "--out", "family1.json"],
        EXIT_PRECONDITION,
    ),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_PRECONDITION),
]

GENERATE_16 = [
    (
        ["generate", "counterexample", "--ks", "2,2,2,2,1,1", "--seed", "0", "--out", "inst.json"],
        EXIT_OK,
    ),
]

JOIN_1_1_1_1 = [
    (
        ["generate", "counterexample", "--ks", "1,1,1,1", "--seed", "0", "--out", "inst.json"],
        EXIT_OK,
    ),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]



def scale_bodies(path="inst.json"):
    """Rewrite the instance at ``path`` with every body scaled by 2 about
    the average of its generators, in exact rationals."""
    doc = json.loads(Path(path).read_text())
    for family in doc["families"]:
        for body in family["sets"]:
            points = [[Fraction(x) for x in point] for point in body["points"]]
            center = [sum(column) / len(points) for column in zip(*points)]
            body["points"] = [[str(2 * x - c) for x, c in zip(p, center)] for p in points]
    Path(path).write_text(json.dumps(doc, indent=2))


SCALED = [
    (
        ["generate", "counterexample", "--ks", "1,1", "--seed", "0", "--out", "inst.json"],
        EXIT_OK,
    ),
    (scale_bodies, None),
    (["check-colorful", "inst.json", "--out", "colorful.json"], EXIT_OK),
    (
        ["transversal", "inst.json", "--family", "1", "--out", "family1.json"],
        EXIT_NEGATIVE,
    ),
    (
        ["transversal", "inst.json", "--family", "2", "--out", "family2.json"],
        EXIT_NEGATIVE,
    ),
    (["certificate", "inst.json", "--out", "certificate.json"], EXIT_OK),
]

GOLDEN = {
    "theorem": {
        "inst.json": "28be2faa9a1e5b1d0e824431ef5cf3bb1caeb9cd3b82a0bf20811e35fbc88f19",
        "colorful.json": "a4cd3e57f078f3a318faa96a71bd89d754f38a4053c28857d623da1204e20ea7",
        "theorem.json": "b20eba8719a4549d2ed18c6fdd1bc773c58d7616647d547668a958edf9e3f61a",
        "family1.json": "188d4176f2c8ca4d2ae702f2b2e958f7cf57c61ef6380195a0eba81f5e63b186",
        "family2.json": "3bb0829495032f4319799ffd624f88d610e1f66ab8293f6972fb16323892a6d6",
        "certificate.json": "fb0b0cd3dc11a8cac88e55bc308285bc12131020ca9b6bf5a6a933f90e52a9c0",
        "stdout": "25e3af24bd60d941530cd58b294f3b620df352ff4e4d4b2779c41a0b06b01980",
        "lp-systems": "27c3811c129e6cd6a7ebca222d81a248e638b529009294636ee768def4105660",
    },
    "counterexample": {
        "inst.json": "029a6e86f86f9fb8e4f8e775eb8ee68c87454c5b9e749d3dc143463074126bc4",
        "inst.json.cert.txt": "6188dda3854026ee151be541cfc5f14f1f3de7022d3b0246bd6db206a36a453f",
        "colorful.json": "6f27fb124e6e4c91344ec8ea700ea2a981ef357d0f4d6d4849f50a63b8a8a8bb",
        "family1.json": "4961159a418ad79eefc522c866daee9c4d16b85452af2a43ab3b104c8d70f192",
        "family2.json": "c5644ba3562d1ae53bd9573fd6bd436d1b9c0960c069057ed98b9b30e0f3c707",
        "certificate.json": "a4fa4a7f4a19628723fcf5c728de88186c160ee64e5e0e9ac9d5d42824c058d8",
        "stdout": "87ab848e5d338b6bf6dbea1100ed4faf473738a0971eac15c1d8b4be8d59a730",
        "lp-systems": "5f0350a19874e37509f18e2fede35979422a6259ad07676fd1ff500842e537bf",
    },
    "join": {
        "inst.json": "032d0527aafc38233660ccde4031bdc95b54bb8789d5d0d1f49e34ed1681ec6c",
        "inst.json.cert.txt": "65d12fec09fc9c473432a2e8faedf6422f2f36f04d0aafcf2e80d300e1919ffa",
        "colorful.json": "3bd4273e32df9fde4e8d5510170f4a516b66f0c15d57eb57be91df5d9a0d516d",
        "family1.json": "da923b40867052ea0074ca275b92888b8e2012901c350f528ab7fd52242d00d4",
        "family2.json": "258969d37432c6a4d800a710b7db69f2c33f0bbe191d0e3059f3a26a38dad91d",
        "certificate.json": "888cb70aa09b47cfe686f0fa8a64991382300d3e30dc7850000801e474d19b9e",
        "stdout": "5dab7d8c4b228cbf5fa8dec65baca86f56a963ca231fc8348243475a6bf4025a",
        "lp-systems": "e8708c382345465ac6b285859423558d2aec59fe401460cf93ac41aaca66bcc5",
    },
    "join-2-2": {
        "inst.json": "54570e492f4d59fc710ce44c491ab2c270da60bbc976536f38f7cf62290517fa",
        "inst.json.cert.txt": "ff3bebd60add349ba5e990137f524bae0de4debbbc7ef7a0f87a3ca75e539331",
        "colorful.json": "57794225154e3fe03a31bd6501470a9b212f3b7a165154c690d724a91e113658",
        "family1.json": "ed74dd5cf92615bc0a001e9514129e290dcb6a972de414b88640d05ef8ebaa81",
        "family2.json": "e9285fc52ce80fec616127f9494ec6826b161c67e25e33e2bf657968e576d2bb",
        "certificate.json": "f1549b456aa0d80f7b03a96d18a5c6e54ace1f38b64aafebb20b118acc452d25",
        "stdout": "1133eda8f8c1b5bc5354361cbd3acb3cced39a17fce0d983d21c6163bc863a34",
        "lp-systems": "98e639e4297c918429bef94d818479d5b8bca526c9b4b56b1c060b9f5b68a1db",
    },
    "join-3-1": {
        "inst.json": "280bd997be63734a43790831c4221eb07adc8d2f55a3b608098c3ced1e2ff24a",
        "inst.json.cert.txt": "78c149a410781b254b88ac43d5ec3fa34aa97fc96b46d41ccf54d83da9b912f1",
        "colorful.json": "4ad826a72f3a2e94b87d497720661b460d2a0da93e046d61d85600b3efb4998e",
        "family1.json": "bc3e0390c13f17da6a9867a8fa1b3ef6a57881eeaf02ad228047e5676f328122",
        "family2.json": "85ec5370632cf08c111d88f642fa7a104993e4514d1215ba02dd7458f0c41970",
        "certificate.json": "9752da1fc848b1365904e11c8f3e8d7870f5ad372f08ee7b8296b18ea56663d9",
        "stdout": "17b0b2da64a24737d2566db319a0c20a9e93cb64b8ab83fa066cca6aa6b51b81",
        "lp-systems": "629bae67dc60b9118b0d80969685703f5824b9b81b3642b2c9d024dc4f8f588b",
    },
    "join-1-1-1": {
        "inst.json": "4deb6c9121b964bceafff6d35aaa097077562f71921560f52768c3249905f6a0",
        "inst.json.cert.txt": "efa998a85cb9340ef87351b19abd9b21e5c301a7fcd5cc1921c4d2c21777ddd1",
        "colorful.json": "72556852f84d4ffc654cb2b06793bffee0dc175eee26c54eb99a01bff8f75acc",
        "family1.json": "789e5010a2ef1355551bc9e87c8bc3ae52f94f284d428190eaef1a7e15ba8013",
        "family2.json": "900ba3d2dadca16a712cc0341b5eb2fb1d336ab812ccd08fe714d8b4db83f2cc",
        "family3.json": "016803e888692f70febb3159d1c513a2e656b3442b41141fd564d2918d8f4cab",
        "certificate.json": "a1783c3c8724ec76ca6ae38f3cd1dbcce8a6f0534099c40efaff323aec224158",
        "stdout": "f51b5f95e959624570087dc5c4156ecb21aac1d8079d148aef9b529c4aac7a72",
        "lp-systems": "d2b057345ce7b7a25fc63253e8519f81318b6d5f0c81bb965894de2ba3e5470b",
    },
    "generate": {
        "inst.json": "50ef0bf5148895b735a151f0f2227225dab40477be9f272e63949e4bae542f92",
        "inst.json.cert.txt": "a92c66d58895e8afe995059d9e39663ce97579f0006cd73d4682a2c63e11c7bb",
        "stdout": "5b25b82d264c867fe5872be22ce23fd1a28a37e2b79d7afc40830b29603d4c2f",
        "lp-systems": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "generate-flats": {
        "inst.json": "1c77c9379a48278e8c919aa3e8a843684df74b17694c86cecc4bff6860f51291",
        "inst.json.cert.txt": "ba956ae79d0dc68652a246b745eb650f2266f1cb4d5fbf4b00e075c0c425e413",
        "stdout": "5b25b82d264c867fe5872be22ce23fd1a28a37e2b79d7afc40830b29603d4c2f",
        "lp-systems": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "generate-deep": {
        "inst.json": "9edff7a546bfee9bcaa84a0e1b6d978b04707766839b199b88461eaedefe6981",
        "inst.json.cert.txt": "e32d796de103873131ce1d6e1debcba9eccfbc19fcec3eb6c80c561f22631954",
        "stdout": "5b25b82d264c867fe5872be22ce23fd1a28a37e2b79d7afc40830b29603d4c2f",
        "lp-systems": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "join-1-1-1-1": {
        "inst.json": "d115b78719bca970042e49d09aed69f01a9542c48296ae8ebf58d307808c1be4",
        "inst.json.cert.txt": "a92c66d58895e8afe995059d9e39663ce97579f0006cd73d4682a2c63e11c7bb",
        "colorful.json": "b200e182814c06eee78c0c1c7d28fb12cc425f1726060e8d9d78814cb8a625bc",
        "certificate.json": "ecadd08d744a14d4e070898ded30bc73fb3e932f88724074edac6f9223e93e42",
        "stdout": "a73a21a905b94c6105b84207430fa3b838d16ccad98b7a6c298eb02c7e1154bb",
        "lp-systems": "c32863668706f3f44361c2a508bbac2f257ba4e3cefd7c65c0ede1a0e01efb64",
    },
    "generate-16": {
        "inst.json": "5eac4af9ffac7ce19c7a8bfb2d369dad4ceb8d807fb0b38dd28907bb44bc9028",
        "inst.json.cert.txt": "7a0fc0e7bf146d6c1800e74a83765de6ea400f6145e471fdd7688f46150f27bc",
        "stdout": "5b25b82d264c867fe5872be22ce23fd1a28a37e2b79d7afc40830b29603d4c2f",
        "lp-systems": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "flats": {
        "inst.json": "9cb91ee0a13f20c9935c4d9639d00f7e705d354444c9aecb55948ca5fc7f5b16",
        "inst.json.cert.txt": "65d12fec09fc9c473432a2e8faedf6422f2f36f04d0aafcf2e80d300e1919ffa",
        "colorful.json": "3bd4273e32df9fde4e8d5510170f4a516b66f0c15d57eb57be91df5d9a0d516d",
        "stdout": "3831af885182c5066f21a1fb6e965d31e9d88d5cadedfddc3faf4ae4db624018",
        "lp-systems": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "scaled": {
        "inst.json": "a6c047bc2a1f80a141e7a59baf229da2c24df7b3f3473f4bc92d386f81bbcd3b",
        "inst.json.cert.txt": "08a1dc2f8f856dfc4375f6b2df311d52e007610fe3d8efb59c53e60d91493e9c",
        "colorful.json": "b10bfc65587d94af88a35031f1ca7a93b904c53a32a7aa36712f96f812232e3e",
        "family1.json": "f32aa19e974647b4630d41bbfd79c0bb00063fb47563b2efe78f5e01b459724e",
        "family2.json": "f6a6e9391826beb2944113b0032f6f0c369486978d53580f3c2876ee1a8dd4dd",
        "certificate.json": "e38f38ed10e0279a1839ddb2154601193d15b5e09701d4950e310cffd97ada4a",
        "stdout": "1689c546b0d513feca111a9393d725bfa2425e42303f784bd588663f21a7e119",
        "lp-systems": "74b5955d6d12141f18eb62229e5ff9a9bd8487c4980780544e12203539660b67",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "name,pipeline",
    [
        ("theorem", THEOREM),
        ("counterexample", COUNTEREXAMPLE),
        ("join", JOIN),
        ("generate", GENERATE),
        ("generate-flats", GENERATE_FLATS),
        ("flats", FLATS),
        ("join-2-2", JOIN_2_2),
        ("generate-deep", GENERATE_DEEP),
        ("join-3-1", JOIN_3_1),
        ("join-1-1-1", JOIN_1_1_1),
        ("join-1-1-1-1", JOIN_1_1_1_1),
        ("generate-16", GENERATE_16),
        ("scaled", SCALED),
    ],
)
def test_report_digests(name, pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    systems = set()
    phase_one = exactla._phase_one

    def recording_phase_one(rows, rhs):
        table, _ = exactla._integer_rows(list(row) + [b] for row, b in zip(rows, rhs))
        systems.add(repr(table))
        return phase_one(rows, rhs)

    monkeypatch.setattr(exactla, "_phase_one", recording_phase_one)
    for argv, expected in pipeline:
        if callable(argv):
            argv()
            continue
        assert main(argv) == expected, argv
    digests = {
        path.name: sha256(path.read_bytes()) for path in sorted(tmp_path.iterdir())
    }
    digests["stdout"] = sha256(capsys.readouterr().out.encode("utf-8"))
    digests["lp-systems"] = sha256("\n".join(sorted(systems)).encode("utf-8"))
    assert digests == GOLDEN[name]


class TestColorfulLPCount:
    """Each command asks the colourful question once.  On the scaled
    counterexamples every tuple is one LP, in ``check-colorful`` and in
    ``certificate``, whose other LPs are its partition scans; on guarantee
    instances every tuple of ``verify-theorem`` and ``certificate`` holds
    through a shared generator, with no LP."""

    def generate(self, kind, ks, seed):
        argv = ["generate", kind, "--ks", ks, "--seed", str(seed), "--out", "inst.json"]
        assert main(argv) == EXIT_OK

    def count_common_point(self, monkeypatch):
        calls = []
        common_point = transversal_module.common_point

        def counted(bodies):
            calls.append(bodies)
            return common_point(bodies)

        monkeypatch.setattr(transversal_module, "common_point", counted)
        return calls

    @pytest.mark.parametrize(
        "ks,tuples,scans", [("1,1", 9, 6), ("2,1", 12, 10), ("1,1,1", 27, 9)]
    )
    def test_scaled_counterexamples_solve_each_tuple_once(
        self, ks, tuples, scans, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        self.generate("counterexample", ks, 0)
        scale_bodies()
        calls = []
        phase_one = exactla._phase_one

        def counted(rows, rhs):
            calls.append(rows)
            return phase_one(rows, rhs)

        monkeypatch.setattr(exactla, "_phase_one", counted)
        assert main(["check-colorful", "inst.json"]) == EXIT_OK
        assert len(calls) == tuples
        assert main(["certificate", "inst.json"]) == EXIT_OK
        assert len(calls) == tuples + tuples + scans
        assert "verdict CERTIFICATE-COMPLETE" in capsys.readouterr().out

    @pytest.mark.parametrize("seed", range(3))
    def test_guarantee_instances_decide_without_common_point(
        self, seed, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        self.generate("random", "1,1,1", seed)
        calls = self.count_common_point(monkeypatch)
        assert main(["verify-theorem", "inst.json"]) == EXIT_OK
        assert main(["certificate", "inst.json"]) == EXIT_OK
        assert calls == []
        assert main(["check-colorful", "inst.json"]) == EXIT_OK
        assert len(calls) == 27

    @pytest.mark.parametrize(
        "source,expected,solved",
        [("hand-made", EXIT_NEGATIVE, 2), ("random", EXIT_OK, 27), ("scaled", EXIT_OK, 9)],
    )
    def test_check_colorful_decides_before_points(
        self, source, expected, solved, tmp_path, monkeypatch
    ):
        """``check-colorful`` witnesses only a property that holds.  The
        hand-made instance is that of
        ``test_hand_made_failing_tuple_is_reported_first``: (1, 1) shares a
        generator and needs no LP to decide, (1, 2) and the failing (1, 3)
        are solved, and no point is sought for (1, 1)."""
        monkeypatch.chdir(tmp_path)
        if source == "hand-made":
            segments = [[[0, 2], [9, 10]], [[0, 5], [1, 3], [7, 8]]]
            doc = {
                "dimension": 1,
                "families": [
                    {
                        "k": 0,
                        "sets": [
                            {"type": "vpolytope", "points": [[str(a)], [str(b)]]}
                            for a, b in family
                        ],
                    }
                    for family in segments
                ],
            }
            Path("inst.json").write_text(json.dumps(doc))
        elif source == "random":
            self.generate("random", "1,1,1", 0)
        else:
            self.generate("counterexample", "1,1", 0)
            scale_bodies()
        calls = self.count_common_point(monkeypatch)
        assert main(["check-colorful", "inst.json"]) == expected
        assert len(calls) == solved


@pytest.mark.parametrize(
    "name,pipeline",
    [("theorem", THEOREM), ("counterexample", COUNTEREXAMPLE), ("join", JOIN)],
)
def test_separators_are_small(name, pipeline, tmp_path, monkeypatch):
    """Every separator of the pipeline's instance, from ``assign_normals`` and
    from ``strict_separation`` of every partition's two pooled blocks, has
    numerators and denominators below 2^16.  In the theorem instance every
    partition's pooled hulls meet, so it has none."""
    monkeypatch.chdir(tmp_path)
    argv, expected = pipeline[0]
    assert main(argv) == expected
    instance, _ = load_instance("inst.json")
    separators = []
    for family in instance.families:
        outcome = assign_normals(family)
        if isinstance(outcome, NormalAssignment):
            separators.extend(outcome.normals.values())
        for part in partitions(family.k + 2):
            blocks = [
                [g for idx in block for g in family.bodies[idx - 1].generators]
                for block in (part.part_a, part.part_b)
            ]
            separation = strict_separation(*blocks)
            if separation is not None:
                separators.append(separation)
    assert bool(separators) == (name != "theorem")
    for normal, offset in separators:
        for value in list(normal) + [offset]:
            assert abs(value.numerator) < 2**16 and value.denominator < 2**16
