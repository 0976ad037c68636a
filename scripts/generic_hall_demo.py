#!/usr/bin/env python3
"""Recover generic structure constants by interpolation across primes.

Expands a product of simple classes at each fit prime, aligns the terms by
prime-independent keys (root multisets plus torus exponents), interpolates
every coefficient as a Laurent polynomial in v, and verifies the result at
a held-out prime.
"""

import argparse
import json

from iqhall.hall import generic_structure_constants
from iqhall.quivers import validate_iquiver


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quiver", default=None,
                        help="quiver JSON file (default: split A2)")
    parser.add_argument("--word", default="2,1,1",
                        help="comma list of vertices (default: 2,1,1)")
    parser.add_argument("--primes", default="2,3,5")
    parser.add_argument("--check", type=int, default=7)
    args = parser.parse_args()

    if args.quiver:
        with open(args.quiver) as fh:
            iq = validate_iquiver(json.load(fh))
    else:
        iq = validate_iquiver({"vertices": ["1", "2"],
                               "arrows": [{"id": "a", "src": "1", "tgt": "2"}]})
    word = args.word.split(",")
    primes = [int(x) for x in args.primes.split(",")]

    print(f"word {word} over {iq.to_json()['vertices']}, "
          f"fit primes {primes}, check prime {args.check}")
    out = generic_structure_constants(iq, lambda engine: engine.word_product(word),
                                      primes, args.check)
    for key, poly in sorted(out.items(), key=lambda kv: (kv[0].alpha, kv[0].roots)):
        roots = " + ".join(str(list(r)) for r in key.roots) or "1"
        print(f"  [{roots}] * E_{list(key.alpha)}   coefficient  {poly}")


if __name__ == "__main__":
    main()
