"""Benchmark of the transversals command line.

Usage, from the root of the repository:

    python3 bench/run.py --workload guarantee-wide --seed 1 --seconds 20 --trace 0

Prints one line per metric and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits 2 when the package sources are not found.  Working files go to
``.bench_work/``, report digests to ``.bench_digests/`` and the spans of a
traced run to ``.bench_traces/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import harness
    except ImportError as exc:
        print(f"error: cannot import the transversals package: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    document, lines = harness.run(
        args.workload, args.seed, args.seconds, bool(args.trace), ROOT
    )
    for line in lines:
        print(line)
    print(json.dumps(document), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
