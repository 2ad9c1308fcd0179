#!/usr/bin/env python3
"""Sweep all connected stability graphs and tabulate the trichotomy.

For every connected graph on the chosen label set this prints whether
edge-restriction is injective on stable flats, whether it preserves their
ranks, and whether the graph is complete multipartite; the three always
agree, and the run exits nonzero if they ever split.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter

from tropfan import all_graphs, verify_injectivity


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--vertices", type=int, default=4, choices=(3, 4, 5))
    parser.add_argument("--list-failures-only", action="store_true")
    args = parser.parse_args()

    t0 = time.perf_counter()
    tally = Counter()
    bad = 0
    for g in all_graphs(range(2, 2 + args.vertices), connected=True):
        report = verify_injectivity(g)
        tally[(report.injective, report.multipartite)] += 1
        if not report.agree:
            bad += 1
            print(f"DISAGREE {g.edges}: {report}")
        elif not args.list_failures_only and not report.injective:
            witness = report.witness_flat.edges.edges if report.witness_flat else None
            print(f"not injective {g.edges}: witness flat {witness}")

    print(f"\nconnected graphs on {args.vertices} vertices: {sum(tally.values())}")
    for (injective, multipartite), count in sorted(tally.items()):
        print(f"  injective={injective} multipartite={multipartite}: {count}")
    print(f"elapsed {time.perf_counter() - t0:.2f}s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
