"""Prime generation for RSA key pairs.

Deterministic Miller–Rabin primality testing plus a seeded prime generator.
Key generation in the experiments is seeded so that runs are reproducible; the
security properties (the auditor cannot forge signatures) only require the
standard hardness assumptions, not secret randomness, because all parties in
the reproduction are simulated.
"""

from __future__ import annotations

import random

from repro.crypto.modexp import untabled_power
from repro.errors import KeyGenerationError

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
    151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229,
]

# Deterministic Miller-Rabin witnesses valid for all n < 3.3 * 10^24; for the
# larger RSA-sized candidates we add rounds with pseudo-random bases.
_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


#: pseudo-random Miller–Rabin witnesses tried after the deterministic ones
RANDOM_ROUNDS = 16


def is_probable_prime(n: int, rng: random.Random | None = None) -> bool:
    """Return ``True`` if ``n`` is (very probably) prime.

    Uses trial division by small primes, then Miller–Rabin with the standard
    deterministic witness set plus :data:`RANDOM_ROUNDS` pseudo-random
    witnesses.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False

    # Write n - 1 as d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    power = untabled_power(d, n)

    def composite_witness(a: int) -> bool:
        x = power(a)
        if x == 1 or x == n - 1:
            return False
        for _ in range(r - 1):
            x = (x * x) % n
            if x == n - 1:
                return False
        return True

    for a in _DETERMINISTIC_WITNESSES:
        if a >= n:
            continue
        if composite_witness(a):
            return False

    rng = rng if rng is not None else random.Random(n)
    for _ in range(RANDOM_ROUNDS):
        a = rng.randrange(2, n - 1)
        if composite_witness(a):
            return False
    return True


#: candidates :func:`generate_prime` draws before it gives up
PRIME_ATTEMPTS = 100_000


def generate_prime(bits: int, rng: random.Random) -> int:
    """Generate a random prime with exactly ``bits`` bits."""
    if bits < 8:
        raise KeyGenerationError(f"prime size too small: {bits} bits")
    for _ in range(PRIME_ATTEMPTS):
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1))  # force the top bit (exact size)
        candidate |= 1                  # force odd
        if is_probable_prime(candidate, rng=rng):
            return candidate
    raise KeyGenerationError(
        f"could not find a {bits}-bit prime after {PRIME_ATTEMPTS} attempts")
