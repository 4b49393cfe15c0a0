"""Named prime moduli used throughout the library.

The paper's protocols are field-agnostic ("finite field elements, which can
be treated as large integers whose bit-width typically ranges from 256 to
768", §3.3).  We expose several well-known primes:

* ``MERSENNE31``  — 2^31 − 1.  A small field for cross-field parity
  tests; it runs the generic Python-int path.
* ``MERSENNE61``  — 2^61 − 1.  The library default: fast Python-int
  arithmetic with a comfortable size for Fiat–Shamir challenges.
* ``GOLDILOCKS``  — 2^64 − 2^32 + 1, popular in modern proof systems.
* ``BN254_SCALAR`` — the 254-bit scalar field of the BN254 pairing curve,
  the kind of 256-bit field the paper benchmarks with.
* ``BLS12_381_SCALAR`` — the 255-bit scalar field of BLS12-381 (used by
  Bellperson, one of the paper's baselines).
"""

from __future__ import annotations

MERSENNE31 = (1 << 31) - 1
MERSENNE61 = (1 << 61) - 1
GOLDILOCKS = (1 << 64) - (1 << 32) + 1
BN254_SCALAR = (
    21888242871839275222246405745257275088548364400416034343698204186575808495617
)
BLS12_381_SCALAR = (
    52435875175126190479447740508185965837690552500527637822603658699938581184513
)

#: Primes indexable by a short human-readable name.
NAMED_PRIMES = {
    "m31": MERSENNE31,
    "m61": MERSENNE61,
    "goldilocks": GOLDILOCKS,
    "bn254": BN254_SCALAR,
    "bls12-381": BLS12_381_SCALAR,
}


def is_probable_prime(n: int, rounds: int = 16) -> bool:
    """Miller–Rabin primality test (deterministic witnesses for small n).

    Used in tests and to validate user-supplied moduli; not security
    critical.
    """
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Deterministic witness set valid for n < 3.3e24; enough for our primes
    # up to 64 bits, and a strong probabilistic guarantee above that.
    witnesses = small_primes[:rounds]
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                break
        else:
            return False
    return True
