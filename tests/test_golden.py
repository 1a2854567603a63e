"""Golden SHA-256 digests of command reports.

Each pipeline generates an instance from a fixed seed and runs the report
commands on it through ``main``.  The digest of every file a command writes,
and of everything it prints, is compared with a recorded value, so any change
to a decision or to a report byte fails here.  The theorem-mode instance has
coordinates with denominators up to 8, so its LPs have fractional entries;
the counterexample instances exercise the rank certificates, the negative
transversal ledger and the join certificate.  The ``--ks 2,1`` counterexample
checks the claim on 144 join simplices and audits 15 of them.

Each pipeline also records every distinct ``(rows, rhs)`` system the
phase-one simplex receives.  The digest of that sorted set is compared too,
so a system builder that reorders columns or rows fails here even when it
happens to find the same witnesses.
"""

import hashlib

import pytest

from transversals import exactla
from transversals.cli import EXIT_NEGATIVE, EXIT_OK, EXIT_PRECONDITION, main

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

GOLDEN = {
    "theorem": {
        "inst.json": "28be2faa9a1e5b1d0e824431ef5cf3bb1caeb9cd3b82a0bf20811e35fbc88f19",
        "colorful.json": "a4cd3e57f078f3a318faa96a71bd89d754f38a4053c28857d623da1204e20ea7",
        "theorem.json": "b20eba8719a4549d2ed18c6fdd1bc773c58d7616647d547668a958edf9e3f61a",
        "family1.json": "188d4176f2c8ca4d2ae702f2b2e958f7cf57c61ef6380195a0eba81f5e63b186",
        "family2.json": "3bb0829495032f4319799ffd624f88d610e1f66ab8293f6972fb16323892a6d6",
        "certificate.json": "fb0b0cd3dc11a8cac88e55bc308285bc12131020ca9b6bf5a6a933f90e52a9c0",
        "stdout": "25e3af24bd60d941530cd58b294f3b620df352ff4e4d4b2779c41a0b06b01980",
        "lp-systems": "57bda9a2e5924872827a8754e6f2e98c7f8a67be280b533635e294fa8e90531e",
    },
    "counterexample": {
        "inst.json": "029a6e86f86f9fb8e4f8e775eb8ee68c87454c5b9e749d3dc143463074126bc4",
        "inst.json.cert.txt": "6188dda3854026ee151be541cfc5f14f1f3de7022d3b0246bd6db206a36a453f",
        "colorful.json": "6f27fb124e6e4c91344ec8ea700ea2a981ef357d0f4d6d4849f50a63b8a8a8bb",
        "family1.json": "7068c23249b820b5a3491102d5e3c05ab0bc2c0a7fbd38439e1a5474ce77ab27",
        "family2.json": "7683e6cbf261538d0723256057f6646634c723a9521bd4a7d42988c57d035c71",
        "certificate.json": "a4fa4a7f4a19628723fcf5c728de88186c160ee64e5e0e9ac9d5d42824c058d8",
        "stdout": "ba514971e62ff59521ac3e89a4d5279470ddcaad8036bc167594863ed92ce9f0",
        "lp-systems": "ce71f53ccec5e552861f815c48a19664ddfa07b0a1fc1b9f4229452ec13c69c6",
    },
    "join": {
        "inst.json": "032d0527aafc38233660ccde4031bdc95b54bb8789d5d0d1f49e34ed1681ec6c",
        "inst.json.cert.txt": "65d12fec09fc9c473432a2e8faedf6422f2f36f04d0aafcf2e80d300e1919ffa",
        "colorful.json": "3bd4273e32df9fde4e8d5510170f4a516b66f0c15d57eb57be91df5d9a0d516d",
        "family1.json": "2758395ffc15df53cc1d92b8ebd538f8c094817656ecc27a9f57bacff23f21b7",
        "family2.json": "04802202a49f3b2b0def02c82986028a6b0c8e32dad9abd29897cebd5c3ac90e",
        "certificate.json": "888cb70aa09b47cfe686f0fa8a64991382300d3e30dc7850000801e474d19b9e",
        "stdout": "76d9c307de9ec980d233e0961d2853aa36cc7e017ab5d0bb4cc23210333e1ab4",
        "lp-systems": "5fa1f8986937cb74825a7a38461783bb067104437c0040e2f1da771ef05e0df7",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize(
    "name,pipeline",
    [("theorem", THEOREM), ("counterexample", COUNTEREXAMPLE), ("join", JOIN)],
)
def test_report_digests(name, pipeline, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    systems = set()
    phase_one = exactla._phase_one

    def recording_phase_one(rows, rhs):
        systems.add(
            repr(([[str(v) for v in row] for row in rows], [str(b) for b in rhs]))
        )
        return phase_one(rows, rhs)

    monkeypatch.setattr(exactla, "_phase_one", recording_phase_one)
    for argv, expected in pipeline:
        assert main(argv) == expected, argv
    digests = {
        path.name: sha256(path.read_bytes()) for path in sorted(tmp_path.iterdir())
    }
    digests["stdout"] = sha256(capsys.readouterr().out.encode("utf-8"))
    digests["lp-systems"] = sha256("\n".join(sorted(systems)).encode("utf-8"))
    assert digests == GOLDEN[name]
