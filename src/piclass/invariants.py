"""Exact rational pi-invariants of a finite group.

Everything here is integer or Fraction arithmetic; floating point is banned
from this module.  The central quantity is the ratio

    (number of conjugacy classes of pi-elements) / (pi-part of the order),

whose properties the verification suite machine-checks over the census.
"""

from fractions import Fraction
from typing import NamedTuple

from .classes import conjugacy_classes, k_pi
from .errors import PreconditionError
from .group import PermGroup
from .numtheory import is_pi_number, pi_part, prime_factors, validate_pi
from .perm import Permutation
from .subgroups import centralizer_of_element, o_pi_prime, o_pi_prime_order


class PiProfile(NamedTuple):
    """Exact pi-profile of one group: class count, pi-part, and their ratio."""

    pi: frozenset[int]
    k_pi: int
    order_pi: int
    d_pi: Fraction

    def as_dict(self) -> dict:
        return {
            "pi": sorted(self.pi),
            "k_pi": self.k_pi,
            "order_pi": self.order_pi,
            "d_pi": f"{self.d_pi.numerator}/{self.d_pi.denominator}",
        }


def group_primes(group: PermGroup) -> frozenset[int]:
    """Prime divisors of the group order."""
    return frozenset(prime_factors(group.order))


def d_pi(group: PermGroup, pi) -> PiProfile:
    """The exact profile (k_pi, |G|_pi, their quotient) for one prime set,
    kept per group and pi: the suites ask for the same profiles."""
    pi = validate_pi(pi)
    return group.cached(("d_pi", pi), _profile, group, pi)


def _profile(group: PermGroup, pi: frozenset[int]) -> PiProfile:
    k = k_pi(group, pi)
    opi = pi_part(group.order, pi)
    return PiProfile(pi=pi, k_pi=k, order_pi=opi, d_pi=Fraction(k, opi))


def commuting_degree(group: PermGroup) -> Fraction:
    """k(G)/|G|: the probability that two uniform elements commute."""
    return Fraction(conjugacy_classes(group).k, group.order)


class CentralizerDecomposition(NamedTuple):
    """k_pi(G) rebuilt as a sum of k_p over centralizers of mu-class reps."""

    total: int
    summands: tuple[int, ...]
    representatives: tuple[Permutation, ...]
    argmax: PermGroup  # centralizer realizing the largest summand


def k_pi_by_centralizer_decomposition(group: PermGroup, pi, p: int) -> CentralizerDecomposition:
    """Sum k_p(C_G(x)) over representatives x of the mu-classes, mu = pi - {p}.

    Equals k_pi(G); the argmax centralizer N realizes the two-factor bound
    k_pi(G) <= k_mu(G) * k_p(N).
    """
    pi = validate_pi(pi)
    if p not in pi:
        raise PreconditionError(f"{p} is not in pi")
    mu = pi - {p}
    if not mu:
        raise PreconditionError("pi must contain at least one prime besides p")
    table = conjugacy_classes(group)
    reps = [c.rep for c in table.classes if is_pi_number(c.order, mu)]
    summands = []
    centralizers = []
    for rep in reps:
        cent = centralizer_of_element(group, rep)
        centralizers.append(cent)
        summands.append(k_pi(cent, frozenset([p])))
    best = max(range(len(reps)), key=lambda i: summands[i])
    return CentralizerDecomposition(
        total=sum(summands),
        summands=tuple(summands),
        representatives=tuple(reps),
        argmax=centralizers[best],
    )


def normal_pi_complement_exists(group: PermGroup, pi) -> bool:
    """Whether G has a normal subgroup of pi'-order and index |G|_pi.

    A normal pi-complement N is exactly the set of pi'-elements of G: G/N
    is a pi-group, so each pi'-element lies in N.  So the answer is no, with
    no core closed, when the classes of pi'-elements
    (``ClassTable.pi_classes``) do not hold exactly |G|_pi' elements.
    Otherwise N can only be O_pi'(G), the largest normal pi'-subgroup: it
    exists exactly when |O_pi'(G)| = |G|_pi', with |O_pi'(G)| read from
    class sizes and no subgroup built.
    """
    pi = validate_pi(pi)
    table = conjugacy_classes(group)
    order = group.order // pi_part(group.order, pi)  # |G|_pi'
    others = table.pi_bits(frozenset(table.primes) - pi)
    if table.order(table.pi_classes(others)) != order:
        return False
    return o_pi_prime_order(group, pi) == order


def has_normal_pi_complement(group: PermGroup, pi) -> tuple[bool, PermGroup | None]:
    """Normal subgroup of pi'-order and index |G|_pi, if one exists: O_pi'(G),
    built only when ``normal_pi_complement_exists``."""
    if not normal_pi_complement_exists(group, pi):
        return False, None
    return True, o_pi_prime(group, pi)
