"""Paper lemmas as executable checks; only the tests call them.

Each helper rebuilds one step of the paper's argument from the library's
primitives (class counts, centralizers, Sylow and Hall subgroups), so the
tests can check the lemma on concrete groups.  None of them feeds a suite
verdict.
"""

from dataclasses import dataclass
from fractions import Fraction

from piclass.classes import conjugacy_classes, k_pi
from piclass.errors import PreconditionError
from piclass.group import PermGroup
from piclass.invariants import (
    d_pi,
    group_primes,
    k_pi_by_centralizer_decomposition,
    normal_pi_complement_exists,
)
from piclass.numtheory import pi_part, validate_pi
from piclass.perm import Permutation
from piclass.subgroups import (
    DEFAULT_HALL_BUDGET,
    DEFAULT_SUBGROUP_CAP,
    HallSearchOutcome,
    centralizer_of_element,
    centralizer_of_subgroup,
    hall_search,
    normalizer,
    sylow_subgroup,
)


def burnside_criterion(group: PermGroup, p: int) -> bool:
    """True when a Sylow p-subgroup is self-centralizing in its normalizer,
    i.e. C_G(P) = N_G(P); this forces a normal p-complement."""
    syl = sylow_subgroup(group, p)
    norm = normalizer(group, syl)
    cent = centralizer_of_subgroup(group, syl)
    return norm.order == cent.order


def d_pi_hall_average(group: PermGroup, pi, p: int,
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
    if not normal_pi_complement_exists(group, mu):
        raise PreconditionError("no normal mu-complement; the average formula does not apply")
    outcome = hall_search(group, mu, budget=budget, subgroup_cap=subgroup_cap)
    if not outcome.found:
        raise PreconditionError("no Hall mu-subgroup located")
    hall = outcome.subgroup
    if not hall.is_abelian():
        raise PreconditionError("Hall mu-subgroup is not abelian")
    order_p = pi_part(group.order, frozenset([p]))
    total = 0
    for h in hall.element_set():
        cent = centralizer_of_element(group, Permutation._make(h))
        total += k_pi(cent, frozenset([p]))
    return Fraction(total, hall.order * order_p)


def product_lower_bound_check(group: PermGroup, pi,
                              hall_outcome: HallSearchOutcome | None = None,
                              budget: int = DEFAULT_HALL_BUDGET,
                              subgroup_cap: int = DEFAULT_SUBGROUP_CAP
                              ) -> tuple[Fraction, Fraction, bool]:
    """(prod_p d_p(G), d_pi(G), lhs <= rhs), valid under an abelian Hall pi-subgroup.

    Raises PreconditionError unless an abelian Hall pi-subgroup is in hand.
    """
    pi = validate_pi(pi)
    if hall_outcome is None:
        hall_outcome = hall_search(group, pi, budget=budget, subgroup_cap=subgroup_cap)
    if not hall_outcome.found or not hall_outcome.subgroup.is_abelian():
        raise PreconditionError("no abelian Hall pi-subgroup established")
    lhs = Fraction(1)
    for p in sorted(pi):
        lhs *= d_pi(group, [p]).d_pi
    rhs = d_pi(group, pi).d_pi
    return lhs, rhs, lhs <= rhs


@dataclass(frozen=True)
class ClassProductBound:
    """Constructive witnesses Q_i with k_pi(G) <= prod k(Q_i)."""

    witnesses: tuple[PermGroup, ...]
    primes: tuple[int, ...]
    k_pi_value: int
    product: int
    holds: bool


def class_count_product_bound(group: PermGroup, pi) -> ClassProductBound:
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
            decomp = k_pi_by_centralizer_decomposition(group, frozenset([p, *mu]), p)
            host = decomp.argmax
        else:
            host = group
        witnesses.append(sylow_subgroup(host, p))
        primes.append(p)
    value = k_pi(group, pi)
    prod = 1
    for w in witnesses:
        prod *= conjugacy_classes(w).k
    return ClassProductBound(
        witnesses=tuple(witnesses),
        primes=tuple(primes),
        k_pi_value=value,
        product=prod,
        holds=value <= prod,
    )
