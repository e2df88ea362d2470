"""Small exact number-theory helpers: primes, prime divisors, pi-parts."""

import math

from .errors import InvalidInputError


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale orders."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    i = 3
    r = math.isqrt(n)
    while i <= r:
        if n % i == 0:
            return False
        i += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n, ascending."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = []
    if n % 2 == 0:
        out.append(2)
        while n % 2 == 0:
            n //= 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 2
    if n > 1:
        out.append(n)
    return out


def pi_part(n: int, pi: frozenset[int]) -> int:
    """Largest divisor of n whose prime factors all lie in pi."""
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")
    out = 1
    for p in pi:
        while n % p == 0:
            n //= p
            out *= p
    return out


def is_pi_number(n: int, pi: frozenset[int]) -> bool:
    """True iff every prime factor of n lies in pi; 1 is a pi-number for every pi."""
    return pi_part(n, pi) == n


# Every prime dividing |G| is at most the degree of G, the length of an image
# tuple held in memory, so no larger prime can change an answer.  It is
# refused before the trial division, which takes about sqrt(p) / 2 steps.
MAX_PRIME = 2**31 - 1


# each prime set that passed ``validate_pi``, mapped to itself
_VALID_PI: dict[frozenset[int], frozenset[int]] = {}
_INT = frozenset([int])


def validate_pi(pi) -> frozenset[int]:
    """Normalize a prime-set argument, rejecting non-primes, primes above
    ``MAX_PRIME`` and duplicates by construction.  Every set that passes is
    kept, and the kept set is returned: passing it again returns at once,
    and any other equal frozenset is returned after a scan of its types
    (only ints: {2.0} == {2} as well)."""
    known = _VALID_PI.get(pi) if type(pi) is frozenset else None
    if known is not None and (known is pi or _INT.issuperset(map(type, pi))):
        return known
    try:
        out = frozenset(pi)
    except TypeError:  # not iterable, or holds unhashable items
        raise InvalidInputError(f"pi must be a set of primes, not {pi!r}") from None
    if not out:
        raise InvalidInputError("pi must be a non-empty set of primes")
    for p in out:
        if isinstance(p, int) and p > MAX_PRIME:
            raise InvalidInputError(f"prime too large: {p} (the limit is {MAX_PRIME})")
        if not isinstance(p, int) or not is_prime(p):
            raise InvalidInputError(f"not a prime: {p!r}")
    return _VALID_PI.setdefault(out, out)
