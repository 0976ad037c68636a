"""Small shared helpers: canonical JSON and the primality test."""

from __future__ import annotations

import json

from .errors import InputError

# Miller-Rabin to the first 13 prime bases decides every n below the
# smallest strong pseudoprime to all of them (Sorenson and Webster, "Strong
# pseudoprimes to twelve prime bases", Math. Comp. 86, 2017).  The first 12
# bases alone are fooled by 318665857834031151167461.
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def canonical_json(obj) -> str:
    """Byte-stable encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below PRIMALITY_BOUND; above it an
    InputError, since no answer there is proven."""
    if n >= PRIMALITY_BOUND:
        raise InputError(f"{n} is not below {PRIMALITY_BOUND}, the bound of the primality test")
    if n < 2:
        return False
    for a in PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
