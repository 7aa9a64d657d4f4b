#!/usr/bin/env python3
"""Offline end-to-end benchmark for construm.

Usage (from the repository root):

    python3 perfbench/run.py --workload match_llm --seed 1 --seconds 24 --trace 0

Workloads (``perfbench/workloads.py``): ``offline_build`` repeats
artifact builds for ``--seconds``, with 150 queries after each build;
``match_llm`` builds the artifacts three times and runs queries for a
third of ``--seconds`` after each build. Queries run in a closed loop,
one client, ``workers=1``, and ``generate_benchmark`` is timed every
0.6 s between them. Inputs are synthetic catalogs made from ``--seed``;
the chat model is simulated with a fixed latency per call and the
embedder is construm's ``HashEmbeddingBackend``, so nothing leaves the
machine.

Every run checks its outputs (``perfbench/checks.py``) and exits 1
without timings if a check fails or an operation raises. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1`` (``perfbench/metrics.py``
declares both). A traced run traces every other build and a random half
of the queries and leaves the rest untraced; the difference between the
two is the tracing overhead. Spans are written to ``.perfbench_out/``.

Lines before the last one describe the machine, the output digest
(SHA-256 over graph links and groups, tree summaries, decision prompts
and chosen and ranked cids; equal seeds give equal digests), per-build
times, sample counts and the failed fraction.

The benchmark's own tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the workload (the smoke tests use 0.05)")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "construm" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: construm sources not found under {src}")
    sys.path.insert(0, str(src))
    from harness import run

    return run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main())
