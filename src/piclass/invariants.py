"""Exact rational pi-invariants of a finite group.

Everything here is integer or Fraction arithmetic; floating point is banned
from this module.  The central quantity is the ratio

    (number of conjugacy classes of pi-elements) / (pi-part of the order),

whose properties the verification suite machine-checks over the census.
"""

from dataclasses import dataclass
from fractions import Fraction

from .classes import conjugacy_classes, k_pi
from .errors import PreconditionError
from .group import DEFAULT_MAX_ELEMENTS, PermGroup
from .numtheory import is_pi_number, pi_part, prime_factors, validate_pi
from .perm import Permutation
from .subgroups import (
    DEFAULT_HALL_BUDGET,
    DEFAULT_SUBGROUP_CAP,
    HallSearchOutcome,
    centralizer_of_element,
    centralizer_of_subgroup,
    hall_search,
    normalizer,
    o_pi_prime,
    sylow_subgroup,
)

pi_part_of_integer = pi_part


@dataclass(frozen=True)
class PiProfile:
    """Exact pi-profile of one group: class count, pi-part, and their ratio."""

    group_name: str
    pi: frozenset[int]
    k_pi: int
    order_pi: int
    d_pi: Fraction

    def as_dict(self) -> dict:
        return {
            "group": self.group_name,
            "pi": sorted(self.pi),
            "k_pi": self.k_pi,
            "order_pi": self.order_pi,
            "d_pi": f"{self.d_pi.numerator}/{self.d_pi.denominator}",
        }


def group_primes(group: PermGroup) -> frozenset[int]:
    """Prime divisors of the group order."""
    return frozenset(prime_factors(group.order))


def d_pi(group: PermGroup, pi, cap: int = DEFAULT_MAX_ELEMENTS,
         name: str = "") -> PiProfile:
    """The exact profile (k_pi, |G|_pi, their quotient) for one prime set."""
    pi = validate_pi(pi)
    k = k_pi(group, pi, cap)
    opi = pi_part(group.order, pi)
    return PiProfile(group_name=name, pi=pi, k_pi=k, order_pi=opi,
                     d_pi=Fraction(k, opi))


def commuting_degree(group: PermGroup, cap: int = DEFAULT_MAX_ELEMENTS) -> Fraction:
    """k(G)/|G|: the probability that two uniform elements commute."""
    return Fraction(conjugacy_classes(group, cap).k, group.order)


@dataclass(frozen=True)
class CentralizerDecomposition:
    """k_pi(G) rebuilt as a sum of k_p over centralizers of mu-class reps."""

    total: int
    summands: tuple[int, ...]
    representatives: tuple[Permutation, ...]
    argmax: PermGroup  # centralizer realizing the largest summand


def k_pi_by_centralizer_decomposition(group: PermGroup, pi, p: int,
                                      cap: int = DEFAULT_MAX_ELEMENTS
                                      ) -> CentralizerDecomposition:
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
    table = conjugacy_classes(group, cap)
    reps = [c.rep for c in table.classes if is_pi_number(c.order, mu)]
    summands = []
    centralizers = []
    for rep in reps:
        cent = centralizer_of_element(group, rep)
        centralizers.append(cent)
        summands.append(k_pi(cent, frozenset([p]), cap))
    best = max(range(len(reps)), key=lambda i: summands[i])
    return CentralizerDecomposition(
        total=sum(summands),
        summands=tuple(summands),
        representatives=tuple(reps),
        argmax=centralizers[best],
    )


def has_normal_pi_complement(group: PermGroup, pi,
                             cap: int = DEFAULT_MAX_ELEMENTS
                             ) -> tuple[bool, PermGroup | None]:
    """Normal subgroup of pi'-order and index |G|_pi, if one exists.

    A normal pi-complement is a normal pi'-subgroup of order |G|_pi', so it
    can only be O_pi'(G), the largest one.
    """
    pi = validate_pi(pi)
    core = o_pi_prime(group, pi, cap)
    if core.order * pi_part(group.order, pi) == group.order:
        return True, core
    return False, None


def has_normal_p_complement(group: PermGroup, p: int,
                            cap: int = DEFAULT_MAX_ELEMENTS
                            ) -> tuple[bool, PermGroup | None]:
    return has_normal_pi_complement(group, [p], cap)


def burnside_criterion(group: PermGroup, p: int, cap: int = DEFAULT_MAX_ELEMENTS) -> bool:
    """True when a Sylow p-subgroup is self-centralizing in its normalizer,
    i.e. C_G(P) = N_G(P); this forces a normal p-complement."""
    syl = sylow_subgroup(group, p, cap)
    norm = normalizer(group, syl, cap)
    cent = centralizer_of_subgroup(group, syl, cap)
    return norm.order == cent.order


def d_pi_hall_average(group: PermGroup, pi, p: int,
                      cap: int = DEFAULT_MAX_ELEMENTS,
                      budget: int = DEFAULT_HALL_BUDGET,
                      subgroup_cap: int = DEFAULT_SUBGROUP_CAP) -> Fraction:
    """Average of k_p(C_G(h)) / |G|_p over an abelian Hall mu-subgroup H.

    Precondition (verified, not assumed): mu = pi - {p} is nonempty, G has a
    normal mu-complement, and a Hall mu-subgroup is abelian.  Under it the
    average equals the d_pi ratio exactly.
    """
    pi = validate_pi(pi)
    if p not in pi:
        raise PreconditionError(f"{p} is not in pi")
    mu = pi - {p}
    if not mu:
        raise PreconditionError("pi must contain at least one prime besides p")
    exists, _ = has_normal_pi_complement(group, mu, cap)
    if not exists:
        raise PreconditionError("no normal mu-complement; the average formula does not apply")
    outcome = hall_search(group, mu, budget=budget, subgroup_cap=subgroup_cap, cap=cap)
    if not outcome.found:
        raise PreconditionError("no Hall mu-subgroup located")
    hall = outcome.subgroup
    if not hall.is_abelian():
        raise PreconditionError("Hall mu-subgroup is not abelian")
    order_p = pi_part(group.order, frozenset([p]))
    total = 0
    for h in hall.element_set():
        cent = centralizer_of_element(group, Permutation._make(h))
        total += k_pi(cent, frozenset([p]), cap)
    return Fraction(total, hall.order * order_p)


def product_lower_bound_check(group: PermGroup, pi,
                              hall_outcome: HallSearchOutcome | None = None,
                              cap: int = DEFAULT_MAX_ELEMENTS,
                              budget: int = DEFAULT_HALL_BUDGET,
                              subgroup_cap: int = DEFAULT_SUBGROUP_CAP
                              ) -> tuple[Fraction, Fraction, bool]:
    """(prod_p d_p(G), d_pi(G), lhs <= rhs), valid under an abelian Hall pi-subgroup.

    Raises PreconditionError unless an abelian Hall pi-subgroup is in hand;
    census runners record that case as inapplicable rather than pass/fail.
    """
    pi = validate_pi(pi)
    if hall_outcome is None:
        hall_outcome = hall_search(group, pi, budget=budget,
                                   subgroup_cap=subgroup_cap, cap=cap)
    if not hall_outcome.found or not hall_outcome.subgroup.is_abelian():
        raise PreconditionError("no abelian Hall pi-subgroup established")
    lhs = Fraction(1)
    for p in sorted(pi):
        lhs *= d_pi(group, [p], cap).d_pi
    rhs = d_pi(group, pi, cap).d_pi
    return lhs, rhs, lhs <= rhs


@dataclass(frozen=True)
class ClassProductBound:
    """Constructive witnesses Q_i with k_pi(G) <= prod k(Q_i)."""

    witnesses: tuple[PermGroup, ...]
    primes: tuple[int, ...]
    k_pi_value: int
    product: int
    holds: bool


def class_count_product_bound(group: PermGroup, pi,
                              cap: int = DEFAULT_MAX_ELEMENTS) -> ClassProductBound:
    """Realize the product bound by peeling primes in descending order.

    At each step with remaining primes {p} + mu (p largest), the centralizer
    decomposition supplies N = argmax k_p(C_G(x)); its Sylow p-subgroup Q
    satisfies k_p(N) <= k(Q).  The last prime takes Q = Sylow_p(G) directly.
    The realized Q_i are one valid witness family, not a canonical one.
    """
    pi = validate_pi(pi)
    remaining = sorted((q for q in group_primes(group) if q in pi), reverse=True)
    witnesses = []
    primes = []
    for i, p in enumerate(remaining):
        mu = remaining[i + 1 :]
        if mu:
            decomp = k_pi_by_centralizer_decomposition(group, frozenset([p, *mu]), p, cap)
            host = decomp.argmax
        else:
            host = group
        witnesses.append(sylow_subgroup(host, p, cap))
        primes.append(p)
    value = k_pi(group, pi, cap)
    prod = 1
    for w in witnesses:
        prod *= conjugacy_classes(w, cap).k
    return ClassProductBound(
        witnesses=tuple(witnesses),
        primes=tuple(primes),
        k_pi_value=value,
        product=prod,
        holds=value <= prod,
    )
