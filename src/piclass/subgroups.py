"""Subgroup construction and structural computations.

Every subgroup is a ``PermGroup`` built with its element set, so its order
is the set's size, each membership test is a set lookup and it lists in
sorted image order; no subgroup needs a Schreier-Sims chain, and where the
answer is G itself, G is returned.  The one exception is the last entry of
``normal_subgroups``, a fresh ``PermGroup`` equal to G on the generators of
its seed or join: the structure suite prints them as ``A_generators`` (the
``case2_witness`` of S5, A5, S5 x C3, A5 x C3, S5 x C9 and A5 x C9), so
returning G would change the census report.  Subgroups made from
generators (the closures of ``subgroup``, subgroup-class enumeration,
normal closures, Sylow growth, greedy generating sets, stabilizers) get
their sets by coset closure
(``_extender``, which builds a subgroup's element list and generator
tables once for all the elements it is extended by: the enumeration
builds one per class representative it closes at, closes no step
inside a seen overgroup of prime index, and stops a closure at its first
element outside pi); normal closures and Sylow growth
carry the element set and the generator images while they grow, and make
one ``PermGroup`` when they return.  Elements are handled as images:
membership is a set lookup, the walks read a group's cached images list
(``PermGroup._element_images``), and a ``Permutation`` is made only for a
generator a subgroup keeps.  Stabilizer-style computations (centralizers
of elements and subgroups, centers, normalizers, subgroup conjugacy,
intersections) are filters over G's cached images list: a normalizer
keeps the g whose conjugation pair sends each generator of H into H's
element set, and its generators are the greedy generating subset of
what it keeps (``_reduced_subgroup``).  No Schreier tree is walked here;
the tree serves the stabilizer chain alone.  The conjugates of a subgroup
need no transversal: they are a plain orbit walk of its element set
(``perm.conjugation_set_orbit``) under the generators that are not
central, cached on the group under each set of the orbit; a subgroup
they normalize (tested on its generators) walks none.  Sylow growth
builds no normalizer: it tests each element of G against the generators
of the subgroup so far, reads element orders from G's class table, and
its later walks drop the elements that failed for good.  Normal-subgroup
queries (the lattice, O_pi', the Fitting subgroup, the socle) close
class bitsets over the class table of G
(``classes.ClassTable``), and their element sets are read from
those bitsets.  O_pi', the Fitting subgroup and the socle each work out
one bitset and return the entry of ``normal_subgroups`` that has it; the
order of O_pi' is the sum of its class sizes (``o_pi_prime_order``).  A
join N * M is the union of the fusion blocks of N (the classes of G/N,
built in one pass) that meet M; each bitset is joined with the seeds only
(the normal closures of single classes), and a closure stops as soon as
it holds more than |G|/p elements (p the least prime of |G|).  The
lattice (``normal_lattice``) is a ranked list of bitsets and builds no
subgroup; ``normal_subgroups`` makes one per entry, and its seed walks
stop at the order their bitset gives.  No element cap is checked here:
every group built is a subgroup of the one a run
starts from, whose order the run checks (``Config.check_element_cap``).
Searches that can fail distinguish three outcomes explicitly; in
particular ``hall_search`` only ever reports nonexistence from its
exhaustive tier.
"""

import math
import random
from collections.abc import Callable, Iterator
from collections.abc import Set as AbstractSet
from typing import NamedTuple

from .classes import _bits, all_d_p_one, conjugacy_classes
from .config import DEFAULT_HALL_BUDGET, DEFAULT_MAX_QUOTIENT_DEGREE, DEFAULT_SUBGROUP_CAP
from .errors import CapExceededError, DegreeMismatchError, NotInGroupError, PreconditionError
from .group import PermGroup
from .numtheory import is_pi_number, is_prime, pi_part, prime_factors, validate_pi
from .perm import (
    Images,
    Permutation,
    _identity_images,
    _power_images,
    compose_images,
    conjugate_images,
    conjugation_orbit,
    conjugation_pair,
    conjugation_pairs,
    conjugation_set_orbit,
    left_multiplier,
    left_products,
)


def _check_members(parent: PermGroup, elements) -> None:
    """Raise ``DegreeMismatchError`` for an element of another degree than
    parent, and ``NotInGroupError`` for any other element outside it."""
    for x in elements:
        if x.degree != parent.degree:
            raise DegreeMismatchError(f"element degree {x.degree} != group degree {parent.degree}")
        if not parent.contains(x):
            raise NotInGroupError(f"element not in group: {x!r}")


def subgroup(parent: PermGroup, gens) -> PermGroup:
    """Smallest subgroup of parent containing gens (the closure), on the
    nonidentity gens as given; a generator outside parent raises (as in
    ``_check_members``).  Its element set is grown by coset closure
    (``_greedy_generators``)."""
    gens = [g for g in gens if not g.is_identity()]
    _check_members(parent, gens)
    elements = _greedy_generators(parent.degree, [g.images for g in gens])[1]
    return PermGroup(gens or [Permutation.identity(parent.degree)], degree=parent.degree,
                     elements=elements)


def trivial_subgroup(parent: PermGroup) -> PermGroup:
    return _reduced_subgroup(parent, ())


def _extender(elements, gens: list[Images], outside=None) -> Callable[[Images], frozenset | None]:
    """The map x -> element set of <H, x>, for the subgroup H with this
    element set and these generators, all as images.  H's element list and
    the tables of its generators are built once, for every x.  An x of
    another degree than H raises ``DegreeMismatchError`` before the closure
    starts, which would otherwise never end.  With ``outside``, a set of
    elements, the map gives None as soon as a new coset meets it: the
    sweep stops a closure at its first element outside pi.

    Dimino's coset closure (Butler, Fundamental Algorithms for Permutation
    Groups, LNCS 559, 1991): the set is a union of left cosets r*H.  For each
    representative r, in the order found (the identity first), and each
    generator s of <H, x> in list order, a product y = s*r outside the set
    adds the whole coset y*H, read through y's table (``left_products``),
    and becomes a representative.  The set is then closed under left
    multiplication by the generators, so it is <H, x>.  No sifting and no
    inverses.
    """
    base = list(elements)
    degree = len(base[0])
    ident = _identity_images(degree)
    gen_steps = [left_multiplier(s) for s in gens]  # r -> s*r

    def extend(x: Images) -> frozenset[Images]:
        if len(x) != degree:
            raise DegreeMismatchError(f"element degree {len(x)} != group degree {degree}")
        steps = [*gen_steps, left_multiplier(x)]
        closure = set(base)
        reps = [ident]
        for r in reps:
            for times_s in steps:
                y = times_s(r)
                if y not in closure:
                    coset = left_products(y, base)
                    if outside is not None and not outside.isdisjoint(coset):
                        return None
                    closure.update(coset)
                    reps.append(y)
        return frozenset(closure)

    return extend


def _greedy_generators(degree: int, elements, order: int | None = None):
    """The greedy generating subset of ``elements`` (images) and the element
    set it generates: an element is kept when it lies outside the closure
    of those kept before.  With ``order`` given, the scan stops once the
    closure reaches it."""
    kept: list[Images] = []
    closure = frozenset([_identity_images(degree)])
    for x in elements:
        if len(closure) == order:
            break
        if x not in closure:
            closure = _extender(closure, kept)(x)
            kept.append(x)
    return kept, closure


def _reduced_subgroup(parent: PermGroup, elements) -> PermGroup:
    """Subgroup generated by ``elements`` (images), on their greedy
    generating subset (``_greedy_generators``); only the kept elements
    become ``Permutation``s."""
    gens, closure = _greedy_generators(parent.degree, elements)
    return PermGroup([Permutation._make(g) for g in gens] or [Permutation.identity(parent.degree)],
                     elements=closure)


# -- stabilizers: filters over the images list -------------------------------


def _check_degree(group: PermGroup, *subs: PermGroup) -> None:
    """Raise ``DegreeMismatchError`` for a subgroup of another degree than
    group."""
    for sub in subs:
        if sub.degree != group.degree:
            raise DegreeMismatchError(f"subgroup degree {sub.degree} != group degree {group.degree}")


def conjugates(group: PermGroup, sub: PermGroup) -> AbstractSet[frozenset]:
    """The element sets of the conjugates of the subgroup ``sub``.  It is
    normal exactly when each moving pair of G (``PermGroup.moving_pairs``)
    conjugates each of its generators into its element set; then it is its
    own one conjugate and walks no orbit.  For any other the set is the
    orbit of its element set under those pairs
    (``perm.conjugation_set_orbit``, with no transversal).  Each orbit is
    cached on the group under every set in it, so a class of subgroups is
    walked once: the main suite reads the orbit of its Hall subgroup from
    the subgroup-class sweep."""
    orbits = group.cached("conjugates", dict)
    key = sub.element_set()
    orbit = orbits.get(key)
    if orbit is None:
        pairs = group.moving_pairs()
        if all(conjugate_images(pair, g.images) in key for pair in pairs for g in sub.generators):
            orbit = {key}
        else:
            orbit = conjugation_set_orbit(key, pairs)
        orbits.update(dict.fromkeys(orbit, orbit))
    return orbit


def _centralizer(group: PermGroup, xs: list[Images]) -> PermGroup:
    """The g of G's images list that commute with every x in ``xs``, on
    their greedy generating subset (``_reduced_subgroup``)."""
    return _reduced_subgroup(group, [g for g in group._element_images()
                                     if all(compose_images(g, x) == compose_images(x, g)
                                            for x in xs)])


def _conjugators(group: PermGroup, xs: list[Images], members) -> Iterator[Images]:
    """The g of G's images list, in its order, with g x g^-1 in ``members``
    for every x in ``xs``, each g through its conjugation pair."""
    for g in group._element_images():
        pair = conjugation_pair(g)
        if all(conjugate_images(pair, x) in members for x in xs):
            yield g


def centralizer_of_element(group: PermGroup, x: Permutation) -> PermGroup:
    """C_G(x): the elements of G that commute with x."""
    _check_members(group, [x])
    if group.is_abelian():
        return group
    return _centralizer(group, [x.images])


def normalizer(group: PermGroup, sub: PermGroup) -> PermGroup:
    """N_G(H): the elements of G that conjugate each generator of H into H."""
    _check_degree(group, sub)
    return _reduced_subgroup(group, list(_conjugators(
        group, [h.images for h in sub.generators], sub.element_set())))


def centralizer_of_subgroup(group: PermGroup, sub: PermGroup) -> PermGroup:
    """C_G(H): the elements of G that commute with each generator of H."""
    _check_degree(group, sub)
    return _centralizer(group, [h.images for h in sub.generators])


def center(group: PermGroup) -> PermGroup:
    return centralizer_of_subgroup(group, group)


def normal_closure(group: PermGroup, seeds, elements=None) -> PermGroup:
    """Smallest normal subgroup of G containing the seed elements.

    The generators are the nonidentity seeds, then each conjugate of a
    generator by a generator of G (generators taken in the order added) that
    lies outside the subgroup so far, read through the conjugation pairs
    of G's generators (``PermGroup.conjugation_pairs``), so no generator
    is inverted per conjugate.  The element set grows by coset closure
    (``_extender``) from the greedy generating subset of the seeds and
    the conjugates added, all as images, and the one ``PermGroup`` is made
    at the end.  With ``elements``, the element set of the normal closure
    when the caller already knows it, the walk stops once the subgroup
    reaches its size, and a step whose index into that size is prime takes
    the set whole (Lagrange); the generators are the same.  A seed outside
    G raises (as in ``_check_members``).
    """
    gens = [s for s in seeds if not s.is_identity()]
    _check_members(group, gens)
    target = None if elements is None else len(elements)
    kept, closure = _greedy_generators(group.degree, [s.images for s in gens], target)
    for s in gens:  # gens grows while it is walked
        for pair in group.conjugation_pairs():
            if len(closure) == target:
                break
            c = conjugate_images(pair, s.images)
            if c not in closure:
                if target is not None and is_prime(target // len(closure)):
                    closure = elements
                else:
                    closure = _extender(closure, kept)(c)
                kept.append(c)
                gens.append(Permutation._make(c))
    return PermGroup(gens or [Permutation.identity(group.degree)], elements=closure)


def commutator_subgroup(group: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    """[A, B]: normal closure in <A, B> of the generator commutators."""
    joint = _reduced_subgroup(group, [g.images for g in a.generators + b.generators])
    comms = [x * y * x.inverse() * y.inverse() for x in a.generators for y in b.generators]
    return normal_closure(joint, comms)


def derived_subgroup(group: PermGroup) -> PermGroup:
    return commutator_subgroup(group, group, group)


def subgroup_intersection(group: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    _check_degree(group, a, b)
    small, big = (a, b) if a.order <= b.order else (b, a)
    bigset = big.element_set()
    hits = [x for x in small._element_images() if x in bigset]
    return _reduced_subgroup(group, hits)


def join_subgroups(group: PermGroup, a: PermGroup, b: PermGroup) -> PermGroup:
    return subgroup(group, list(a.generators) + list(b.generators))


# -- normal subgroup lattice ------------------------------------------------


class LatticeEntry(NamedTuple):
    """A normal subgroup as the bitset of the classes it holds, with its
    order and how the lattice found it: the normal closure of class
    ``seed``, or the join of the two bitsets ``parts`` found before it."""

    mask: int
    order: int
    seed: int | None = None
    parts: tuple[int, int] | None = None


def normal_lattice(group: PermGroup) -> tuple[LatticeEntry, ...]:
    """The normal subgroups as class bitsets, no subgroup built.

    Seeds are the normal closures of single classes; every normal subgroup
    is the join of the seeds it contains, so closing the seed set under
    joins with single seeds is exhaustive.  The classes of a rational class
    (``ClassTable.rational_class``) share one closure, so only the first
    class of each is closed.  A join is the class set of N * M
    (``ClassTable.join``).  Bitsets are walked in the order found; a seed is
    joined with the seeds after it and any other bitset with every seed, so
    each unordered pair is joined at most once, and a pair nested one in
    the other is not joined.  So a join is larger than both its parts.

    The entries are sorted by order, then by sorted element images, and that
    second key is read from the bitsets: for two element sets A and B of one
    size, sorted(A) < sorted(B) exactly when min(A ^ B) lies in A.  A ^ B is
    the union of the classes in mask_A ^ mask_B, and classes are numbered by
    their least images, so min(A ^ B) lies in the lowest-numbered of those
    classes, and that is the class at which the ascending class indices of
    the two bitsets first differ.
    """
    return group.cached("normal_lattice", _normal_lattice, group)


def _normal_lattice(group: PermGroup) -> tuple[LatticeEntry, ...]:
    table = conjugacy_classes(group)
    order = table.order
    found: dict[int, LatticeEntry] = {}
    seeds = []  # the identity's class comes first and gives the trivial group
    closed = 0  # the classes of the rational classes closed so far
    for i in range(table.k):
        if closed >> i & 1:
            continue
        closed |= table.rational_class(i)
        mask = table.closure(1 << i)
        if mask not in found:
            found[mask] = LatticeEntry(mask, order(mask), seed=i)
            seeds.append(mask)
    queue = list(seeds)
    for k, current in enumerate(queue):  # queue grows while it is walked
        for other in seeds[k + 1:] if k < len(seeds) else seeds:
            if other & current in (other, current):  # nested: joins to the bigger
                continue
            joined = table.join(current, other)
            if joined not in found:
                found[joined] = LatticeEntry(joined, order(joined), parts=(current, other))
                queue.append(joined)
    return tuple(sorted(found.values(), key=lambda e: (e.order, tuple(_bits(e.mask)))))


def normal_subgroups(group: PermGroup) -> list[PermGroup]:
    """The complete list of normal subgroups, one per entry of
    ``normal_lattice`` and in its order.  Each element set is read from its
    bitset.  A seed's generators are those of the normal closure of its
    class representative, whose walk stops once it reaches that set's size;
    a join's are those of its two parts, which are smaller and so built
    before it.
    """
    return group.cached("normal_subgroups", _normal_subgroups, group)


def _normal_subgroups(group: PermGroup) -> list[PermGroup]:
    table = conjugacy_classes(group)
    built: dict[int, PermGroup] = {}
    for entry in normal_lattice(group):
        elements = frozenset(table.elements(entry.mask))
        if entry.parts is None:
            sub = normal_closure(group, [table.classes[entry.seed].rep], elements)
        else:
            a, b = entry.parts
            sub = PermGroup(built[a].generators + built[b].generators, elements=elements)
        built[entry.mask] = sub
    return list(built.values())


class QuotientGroup(NamedTuple):
    """G/N realized as the action of G on the left cosets of N."""

    group: PermGroup
    parent: PermGroup
    kernel: PermGroup
    coset_reps: tuple[Permutation, ...]
    label: Callable[[Permutation], Images]  # coset of h -> its least element
    index_of: dict[Images, int]  # coset label -> point of the action

    def project(self, g: Permutation) -> Permutation:
        """Image of g in the coset action; a homomorphism by construction."""
        return Permutation([self.index_of[self.label(g * r)] for r in self.coset_reps])


def quotient(group: PermGroup, kernel: PermGroup,
             max_degree: int = DEFAULT_MAX_QUOTIENT_DEGREE) -> QuotientGroup:
    """Coset action of G on G/N; fails rather than seeking a smaller action.
    The kernel's normality is read from the class table of G
    (``ClassTable.normal_mask``)."""
    _check_degree(group, kernel)
    if conjugacy_classes(group).normal_mask(kernel.element_set()) is None:
        raise PreconditionError("kernel is not normal in the group")
    index = group.order // kernel.order
    if index > max_degree:
        raise CapExceededError("quotient degree", index, max_degree)
    kernel_elements = list(kernel.element_set())
    degree = group.degree

    def label(h: Permutation) -> Images:
        return min(left_products(h.images, kernel_elements))

    start = Permutation._make(label(Permutation.identity(degree)))
    reps = [start]
    index_of = {start.images: 0}
    for r in reps:  # reps grows while it is walked
        for g in group.generators:
            lab = label(g * r)
            if lab not in index_of:
                index_of[lab] = len(reps)
                reps.append(Permutation._make(lab))
    if len(reps) != index:
        raise AssertionError("coset count does not match the index")
    qgens = [Permutation([index_of[label(g * r)] for r in reps]) for g in group.generators]
    qgroup = PermGroup(qgens or [Permutation.identity(index)], degree=index)
    if qgroup.order != index:
        raise AssertionError("coset action order does not match the index")
    return QuotientGroup(group=qgroup, parent=group, kernel=kernel, coset_reps=tuple(reps),
                         label=label, index_of=index_of)


# -- Sylow and Hall subgroups ------------------------------------------------


def sylow_subgroup(group: PermGroup, p: int) -> PermGroup:
    """A Sylow p-subgroup, grown one p-part at a time inside the normalizer
    of the subgroup so far, with no normalizer subgroup built.

    Each step takes the first y of G with y outside the current P, y P y^-1
    = P (tested on P's generators, through y's conjugation pair) and y^e
    outside P, and adds y^e, the p-part of y, by coset closure
    (``_extender``), on P's element set and generator images; the
    one ``PermGroup`` is made at the end.  "First" is in sorted image
    order, which is the order a normalizer subgroup lists in; at the first
    step, where P is trivial and its normalizer is G, it is the order of
    G's images list.  So a step adds the p-part the walk of N_G(P) would
    pick.  The p-part is one power: its exponent is read from |G| and
    reduced mod |y|, an order read from G's class table.  An element
    inside P is passed over first, since its p-part (a power of it) lies
    inside too, and so is one of order prime to p, whose p-part is 1.

    P only grows, so an element passed over because y or y^e lies in P
    fails every later step, and the later walks drop it; the rest keep
    their order.  G is sorted once per group, for every prime.
    Deterministic, so it is kept per group and p: the Hall search for every
    pi and the Sylow 3-structure check share one Sylow subgroup per prime.
    """
    validate_pi([p])
    return group.cached(("sylow_subgroup", p), _sylow_subgroup, group, p)


def _sylow_subgroup(group: PermGroup, p: int) -> PermGroup:
    target = pi_part(group.order, frozenset([p]))
    # x^e is the p-part of each x in G: e = 1 mod |G|_p, e = 0 mod |G|_p'
    # agrees mod |x| with the exponent read from |x| (tests/oracles.py)
    rest = group.order // target
    e = rest * pow(rest, -1, target)
    table = conjugacy_classes(group)
    members = frozenset([_identity_images(group.degree)])
    pgens: list[Images] = []
    walk = group._element_images()  # N_G(1) = G, in the order of G's images list
    while len(members) < target:
        waiting = []  # passed over only because they do not normalize P
        for pos, y in enumerate(walk):
            if y in members:
                continue
            n = table.classes[table._index_of[y]].order
            if n % p:  # its p-part is the identity: it fails for good
                continue
            if pgens:
                pair = conjugation_pair(y)
                if any(conjugate_images(pair, g) not in members for g in pgens):
                    waiting.append(y)
                    continue
            yp = _power_images(y, e % n)
            if yp not in members:
                members = _extender(members, pgens)(yp)
                pgens.append(yp)
                break
        else:
            raise AssertionError("Sylow growth stalled below the target order")
        if len(members) == target:
            break
        if len(pgens) == 1:  # the later steps walk G in sorted order, sorted once per group
            walk = group.cached("sorted_images", sorted, group._element_images())
        else:  # drop what failed for good: y or y^e in P
            walk = waiting + walk[pos + 1:]
    return PermGroup([Permutation._make(g) for g in pgens] or [Permutation.identity(group.degree)],
                     elements=members)


class HallSearchOutcome(NamedTuple):
    """Outcome of a Hall subgroup search; ``none_exists`` only from the exhaustive tier."""

    status: str  # "found" | "none_exists" | "unresolved"
    subgroup: PermGroup | None
    method: str | None  # constructive | randomized | exhaustive
    route: str | None

    @property
    def found(self) -> bool:
        return self.status == "found"


def hall_search(group: PermGroup, pi, budget: int = DEFAULT_HALL_BUDGET,
                subgroup_cap: int = DEFAULT_SUBGROUP_CAP, seed: int = 0) -> HallSearchOutcome:
    """Tiered search for a Hall pi-subgroup (order exactly |G|_pi).

    Tier 1 is constructive: the whole group / trivial group shortcuts, the
    closure of one Sylow subgroup per prime (the other Sylow subgroups'
    generators closed onto the largest one's element set, by coset
    closure), and - when d_p(G) = 1 for every
    relevant p - Sylow subgroups taken inside iterated centralizers.  A
    randomized pass then conjugates the Sylow tuple by seeded random elements,
    ``budget`` attempts.  Tier 2 enumerates pi-subgroups up to conjugacy and
    is the only tier allowed to conclude nonexistence.

    The search is deterministic, so its outcome is kept per group and (pi,
    budget, subgroup_cap, seed): the checks that ask for the same search on
    the same group run it once, and every pi reads ``sylow_subgroup``'s.
    """
    pi = validate_pi(pi)
    return group.cached(("hall_search", pi, budget, subgroup_cap, seed),
                        _hall_search, group, pi, budget, subgroup_cap, seed)


def _hall_search(group: PermGroup, pi: frozenset[int], budget: int, subgroup_cap: int,
                 seed: int) -> HallSearchOutcome:
    target = pi_part(group.order, pi)

    def found(sub: PermGroup, method: str, route: str) -> HallSearchOutcome:
        # Independent recheck of the Found contract.
        if sub.order != target or not is_pi_number(sub.order, pi):
            raise AssertionError("hall candidate failed verification")
        return HallSearchOutcome("found", sub, method, route)

    if target == 1:
        return found(trivial_subgroup(group), "constructive", "pi-part of order is 1")
    if target == group.order:
        return found(group, "constructive", "whole group is a pi-group")

    relevant = [p for p in prime_factors(group.order) if p in pi]
    sylows = [sylow_subgroup(group, p) for p in relevant]
    gens = [g for s in sylows for g in s.generators]
    largest = max(sylows, key=lambda s: s.order)  # the others close onto its element set
    kept, closure = [g.images for g in largest.generators], largest.element_set()
    for g in gens:
        if g.images not in closure:
            closure = _extender(closure, kept)(g.images)
            kept.append(g.images)
    if len(closure) == target:
        return found(PermGroup(gens, elements=closure), "constructive",
                     "closure of one Sylow subgroup per prime")

    if all_d_p_one(group, pi):
        # d_p = 1 gives a normal p-complement K_p, so N = the meet of the K_p
        # is a normal pi-complement, and G/N is abelian.  Each Sylow subgroup
        # of an iterated centralizer is then one of G, and it lies with the
        # earlier ones in one abelian Hall subgroup of that centralizer.
        cur = group
        hgens: list[Permutation] = []
        for p in sorted(relevant, reverse=True):
            syl = sylow_subgroup(cur, p)
            hgens.extend(syl.generators)
            cur = centralizer_of_subgroup(cur, syl)
        return found(subgroup(group, hgens), "constructive",
                     "Sylow subgroups in iterated centralizers (descending)")

    rng = random.Random(seed)
    for attempt in range(budget):
        gens = []
        for s in sylows:
            pair = conjugation_pairs([group.random_element(rng)])[0]
            gens.extend(Permutation._make(conjugate_images(pair, g.images))
                        for g in s.generators)
        cand = subgroup(group, gens)
        if cand.order == target:
            return found(cand, "randomized", f"random Sylow conjugates, attempt {attempt + 1}")

    if group.order <= subgroup_cap:
        classes = enumerate_subgroups_up_to_conjugacy(group, pi=pi, cap=subgroup_cap)
        for sub in classes:
            if sub.order == target:
                return found(sub, "exhaustive", "pi-subgroup enumeration")
        return HallSearchOutcome("none_exists", None, "exhaustive",
                                 "no pi-subgroup of Hall order exists")
    return HallSearchOutcome("unresolved", None, None, "budget exhausted over exhaustive cap")


def are_conjugate_subgroups(group: PermGroup, a: PermGroup, b: PermGroup):
    """(conjugate?, witness g with g a g^-1 = b).

    The witness is the first g of G's images list that conjugates each
    generator of a into b; as a and b have one order, g a g^-1 = b.
    """
    _check_degree(group, a, b)
    if a.order != b.order:
        return False, None
    akey = a.element_set()
    bkey = b.element_set()
    if akey == bkey:
        return True, Permutation.identity(group.degree)
    witness = next(_conjugators(group, [x.images for x in a.generators], bkey), None)
    return (False, None) if witness is None else (True, Permutation._make(witness))


# -- characteristic-style subgroups ------------------------------------------


def _lattice_entry(group: PermGroup, mask: int) -> PermGroup:
    """The entry of ``normal_subgroups`` whose class bitset is ``mask``."""
    masks = [entry.mask for entry in normal_lattice(group)]
    return normal_subgroups(group)[masks.index(mask)]


def o_pi_prime(group: PermGroup, pi) -> PermGroup:
    """O_{pi'}(G), the largest normal pi'-subgroup: the lattice entry whose
    class bitset is ``ClassTable.normal_core`` of the primes of |G| outside
    pi."""
    pi = validate_pi(pi)
    table = conjugacy_classes(group)
    primes = frozenset(table.primes) - pi
    core = _lattice_entry(group, table.normal_core(primes))
    if not is_pi_number(core.order, primes):
        raise AssertionError("normal core has a disallowed prime")
    return core


def o_pi_prime_order(group: PermGroup, pi) -> int:
    """|O_{pi'}(G)|: the summed sizes of the classes of
    ``ClassTable.normal_core``, with no subgroup built."""
    pi = validate_pi(pi)
    table = conjugacy_classes(group)
    return table.order(table.normal_core(frozenset(table.primes) - pi))


def fitting_subgroup(group: PermGroup) -> PermGroup:
    """F(G), the join of the largest normal p-subgroups over p | |G|: the
    lattice entry whose class bitset is the closure of the union of their
    bitsets (``ClassTable.normal_core``)."""
    table = conjugacy_classes(group)
    union = 1  # the identity's class, for a group with no prime
    for p in table.primes:
        union |= table.normal_core([p])
    return _lattice_entry(group, table.closure(union))


def socle(group: PermGroup) -> PermGroup:
    """Join of the minimal normal subgroups: the lattice entry whose class
    bitset is the closure of the minimal bitsets, those with no other
    nontrivial bitset of the lattice inside them."""
    masks = [entry.mask for entry in normal_lattice(group)]
    joined = masks[0]
    for m in masks[1:]:
        if not any(o != m and o & m == o for o in masks[1:]):
            joined |= m
    return _lattice_entry(group, conjugacy_classes(group).closure(joined))


def is_simple(group: PermGroup) -> bool:
    return group.order > 1 and len(normal_lattice(group)) == 2


def almost_simple_socle(group: PermGroup) -> PermGroup | None:
    """The socle when the group is almost simple (non-abelian simple socle
    with trivial centralizer); None otherwise."""
    s = socle(group)
    if s.order == 1 or s.is_abelian():
        return None
    if not is_simple(s):
        return None
    if centralizer_of_subgroup(group, s).order != 1:
        return None
    return s


# -- exhaustive subgroup enumeration ------------------------------------------


def _prime_roots(group: PermGroup) -> tuple[list[int], dict]:
    """Element orders, and the prime roots of each element, by position in
    the group's images list.

    The roots of h are the x with x^q = h for some prime q dividing |x|;
    the dict maps h's images to their positions, ascending.  Orders are
    read from the list of class orders through the table's index of
    classes, the primes dividing each order once per order, and the powers
    of x through x's table.  Built once per group, so every pi shares it.
    """
    table = conjugacy_classes(group)
    elements = group._element_images()
    class_orders = [cls.order for cls in table.classes]
    orders = [class_orders[c] for c in map(table._index_of.__getitem__, elements)]
    primes_of = {n: [q for q in table.primes if n % q == 0] for n in set(orders)}
    roots: dict[Images, list[int]] = {}
    for i, x in enumerate(elements):
        power = x
        times_x = left_multiplier(x)
        k = 1  # power is x^k
        for q in primes_of[orders[i]]:
            while k < q:
                power = times_x(power)
                k += 1
            roots.setdefault(power, []).append(i)
    return orders, roots


def enumerate_subgroups_up_to_conjugacy(group: PermGroup, pi=None,
                                        cap: int = DEFAULT_SUBGROUP_CAP) -> list[PermGroup]:
    """One representative per conjugacy class of subgroups, complete.

    Layered prime steps (the cyclic extension method; Neubüser 1960): every
    found class representative H is extended by coset closure
    (``_extender``, on images, with H's element list and generator tables
    built once per H) by each x outside H with x^q in H for a
    prime q dividing |x|, walked in the order of the group's images list,
    and each new subgroup K = <H, x> is deduplicated against the conjugate
    closure of the classes found so far; a ``PermGroup`` is made only for a
    new class.  The steps of H are the prime roots of its elements
    (``_prime_roots``).  With ``pi`` set, only pi-elements are steps and only
    pi-subgroups are kept (sound: every subgroup of a pi-group is again one,
    so chains never have to leave the pi-world); both tests read prime
    supports from the class table (``ClassTable.prime_support``).  A
    closure stops at its first coset that meets an element outside pi: by
    Cauchy's theorem a subgroup holding one is no pi-group.

    The sweep is exhaustive.  A subgroup K > H is generated by its elements
    of prime-power order, so one of them, x of order q^a, lies outside H;
    for the least j with x^(q^j) in H, y = x^(q^(j-1)) is a prime step of
    H inside K.  So every K is reached from 1 by a chain of prime steps.
    Conjugation maps prime steps to prime steps, so if H in such a chain is
    conjugate to a representative R = H^g, then <H, y>^g = <R, y^g> is a
    prime step of R, and induction on the chain reaches K's class.

    A step y lying in a seen K with |K : H| prime and H inside K is never
    closed.  By Lagrange's theorem the order of a subgroup between H and K
    is a multiple of |H| dividing q|H|, so it is H or K: H is maximal in
    K, and <H, y> = K for every y in K outside H, a class already found.
    Such a K is covered, its elements marked as steps not to close, when
    the base starts (it was seen before: a test on H's generators) or when
    its class is found (a test on each conjugate in the orbit that marks
    them seen).  A base equal to G has no steps, and a base whose steps
    are all covered builds no ``_extender``.

    After each closure, later steps y with <H, y> = K are skipped:
    (a) when |K : H| is prime, every y in K: such a K is always a new
    class (a seen one is covered), and finding its class covers it;
    (b) otherwise, or when the closure stopped, every y in a double coset
    H x^k H with k coprime to |x|, since y = a x^k b (a, b in H) gives
    <H, y> = <H, x^k> = <H, x>.  These are built as the H-conjugation
    orbits of the coset x^k H, read through the table of x^k (a x^k b is
    the conjugate of x^k b a by a).  A prime step x of a complete closure
    never normalizes H in case (b): if it did, |K : H| would be
    |<x> : <x> meet H| = q, and (a) would apply.  A skipped y would only
    rebuild a K that has already been seen (or that the pi filter dropped),
    so no class is lost.

    Every conjugate of a new class is marked as seen (``conjugates``): a
    normal subgroup is its own one conjugate and walks no orbit.
    """
    if group.order > cap:
        raise CapExceededError("subgroup enumeration", group.order, cap)
    pi = validate_pi(pi) if pi is not None else None
    return group.cached(("subgroup_classes", pi), _enumerate, group, pi)


def _enumerate(group: PermGroup, pi: frozenset[int] | None) -> list[PermGroup]:
    """The sweep of ``enumerate_subgroups_up_to_conjugacy``, sorted by order
    and then by sorted element images."""
    table = conjugacy_classes(group)
    primes = table.primes  # a prime index |K : H| divides |G|
    elements = group._element_images()
    orders, roots = group.cached("prime_roots", _prime_roots, group)
    other = 0 if pi is None else ~table.pi_bits(pi)  # the supports' other primes
    allowed = [not table.prime_support(n) & other for n in orders]
    non_pi = frozenset(x for x, ok in zip(elements, allowed) if not ok) or None
    found = [trivial_subgroup(group)]
    seen = {1: set(conjugates(group, found[0]))}  # order -> the conjugates of the classes found
    for base in found:
        base_set = base.element_set()
        if len(base_set) == group.order:
            continue
        gens = [g for g in base.generators if not g.is_identity()]
        gen_images = [g.images for g in gens]
        covered = set(base_set)  # x with <H, x> known: H, or a closure made or seen

        def cover_overgroups(keys):
            """Cover each K of ``keys`` that holds H: H is maximal in it."""
            for key in keys:
                if key.issuperset(gen_images):
                    covered.update(key)

        for q in primes:
            cover_overgroups(seen.get(q * len(base_set), ()))
        extend = None  # built when the first closure needs it, once per base
        steps = sorted({i for h in base_set for i in roots.get(h, ()) if allowed[i]})
        base_pairs = None  # built when case (b) first needs them
        for i in steps:
            xim, n = elements[i], orders[i]
            if xim in covered:
                continue
            if extend is None:
                extend = _extender(base_set, gen_images, non_pi)
            extended = extend(xim)  # None: stopped, not a pi-group
            maximal = extended is not None and len(extended) // len(base_set) in primes
            if not maximal:  # the double cosets H x^k H, k coprime to |x|
                if base_pairs is None:
                    base_pairs = base.conjugation_pairs()
                times_x = left_multiplier(xim)
                power = xim
                for k in range(1, n):
                    if power not in covered and math.gcd(k, n) == 1:
                        for y in left_products(power, base_set):  # x^k H
                            if y not in covered:
                                covered.update(conjugation_orbit(y, base_pairs))
                    power = times_x(power)
            if extended is not None and extended not in seen.get(len(extended), ()):
                found.append(PermGroup(gens + [Permutation._make(xim)], elements=extended))
                orbit = conjugates(group, found[-1])
                seen.setdefault(len(extended), set()).update(orbit)
                if maximal:  # H is maximal in <H, x>
                    cover_overgroups(orbit)
    found.sort(key=lambda h: (h.order, tuple(sorted(h.element_set()))))
    return found
