"""Check the exhaustive miner against its brute-force reference path.

``mine_wdl`` walks the expansion of DL1 and DL3 and sends only the
survivors through the full predicate.  The reference path is the linear
null-space walk (every solution of the exchange law) with the full
predicate on each, run here with EXHAUSTIVE_CAP lifted.  The script
prints both summaries and exits 1 if they differ.  GF(2) at dims 2,3,
the default, has 2^18 solutions and takes about a minute.

Usage: python3 scripts/check_miner_oracle.py [--field P] [--dims S,T]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from weakcp import mine
from weakcp.fields import GF
from weakcp.fixtures import diagonal_algebra


def summary(result):
    return ((result.total, result.weak, result.nondegenerate),
            [(law.code, law.nabla_rank, law.self_yang_baxter)
             for law in result.laws])


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Check the exhaustive miner against its brute-force "
                    "reference path.")
    parser.add_argument("--field", type=int, default=2)
    parser.add_argument("--dims", default="2,3")
    args = parser.parse_args(argv)
    s, t = (int(x) for x in args.dims.split(","))
    field = GF(args.field)
    a, b = diagonal_algebra("S", s, field), diagonal_algebra("T", t, field)
    fast = summary(mine.mine_wdl(a, b))
    mine.EXHAUSTIVE_CAP = float("inf")
    reference = summary(mine._mine(a, b, lambda law, axioms: law.codes()))
    for name, (counts, laws) in (("walk", fast), ("reference", reference)):
        print(f"{name}: {len(laws)} laws, (total, weak, nondegenerate) = "
              f"{counts}")
    if fast != reference:
        print("the walk and the reference path differ")
        return 1
    print("identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
