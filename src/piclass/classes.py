"""The class table of a group and its pi-element class counts.

``conjugacy_classes(G)`` is the one class table of G, cached on G.  It holds
the classes and their members, and reads the normal subgroups of G as unions
of classes: their closures and joins, a lower bound on k_pi(N) by the
G-classes inside N, and k_pi(G/N) by class fusion.  An N is counted exactly
on its own class table.  The classes of G and of each G/N are counted per
prime support, the set of primes dividing the element order, so k_pi for
any pi is a sum over those counts; k_pi(G) and the lower bound on k_pi(N)
are popcounts of one bitset of pi-element classes per pi.  The fusions of
G/1 = G and of G/G are written down, not built.

Members are kept as images (``Permutation.images``: bytes up to degree
256, the wide tuple type ``perm._Wide`` above, both composed by
``.translate``).  Every product goes through ``perm`` but those of the
class-product supports, which read ``perm``'s tables.  The class
sweep walks the group's cached images list (``PermGroup._element_images``)
by conjugation orbits, each conjugate x giving its table once for the steps
g * (x * g^-1).  It conjugates only by the generators that are not central
(``PermGroup.moving_pairs``): the others fix every element, so the orbits
and their member order are those of all the generators, and in an abelian
group each element is its own class with no walk.  The classes are kept as
parallel tuples: the images of each representative (its least member), the
sizes and the element orders; their records (``ConjClass``, a named tuple
with a ``Permutation`` for the representative) are made only when
``ClassTable.classes`` is first read, and the library reads the tuples.
Element orders come from power walks: the classes are walked in order, and
each one that no earlier walk reached lists the powers of its
representative x through x's table (``perm.powers``) until they return to
the identity.  That gives |x| = m, and x^e has order
m / gcd(e, m), so the walk also gives the order of every class it reaches.
The walk is kept as the class's power map (``ClassTable.power_map``).  The
primes of element orders are read from ``ClassTable.primes``.
"""

from collections import defaultdict
from functools import cached_property
from math import gcd
from typing import NamedTuple

from .errors import NotInGroupError
from .group import PermGroup
from .numtheory import pi_part, prime_factors, validate_pi
from .perm import Images, Permutation, _table, conjugation_orbits, powers


class ConjClass(NamedTuple):
    rep: Permutation  # the class member with the least images
    size: int
    order: int  # element order, shared by the whole class


def pi_count(histogram: dict[int, int], bits: int) -> int:
    """The classes counted in ``histogram`` (prime support -> classes) whose
    support lies inside ``bits``: k_pi, for ``bits`` the primes of pi
    (``ClassTable.pi_bits``)."""
    return sum(count for support, count in histogram.items() if not support & ~bits)


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClassTable:
    """The conjugacy classes of a group, their members and the unions of
    classes that normal subgroups are.

    Class i has the representative images ``rep_images[i]``, the size
    ``sizes()[i]`` and the element order ``class_orders[i]``, and the record
    ``classes[i]``, made on first read; ``members[i]`` lists its members'
    images in the order the sweep's orbit found them, and ``class_of``
    resolves an element to its class through the sweep's dict from images
    to class numbers.

    A normal subgroup is a union of classes (Hulpke, "Computing normal
    subgroups", ISSAC 1998), so it is kept as a bitset: bit i stands for
    class i.  Everything is read from the supports of class products: the
    bitset of classes that C_i * C_j meets.  C_i * C_j = C_j * C_i is a union
    of classes, so its support is the set of classes met by x * C_i for the
    representative x of C_j.  Each support is built on first use, by one set
    comprehension over the smaller class: each y goes through the table of
    the larger class's representative (``perm._table``: y.translate(table)
    on either layout) to its class bit.  The tables of all the
    representatives are built together, on the first support, and each row
    of supports is allocated on first use, so a table that only counts
    classes (k = |G| for an abelian group) holds neither k tables nor a
    k x k matrix.

    Closures, fusions, power maps, normal cores and the bits and classes of
    each prime set are built once and cached; the class counts of G/N are
    not, as the quotient suite reads each N once.  It reads the G-classes
    of pi-elements inside N (``k_pi_lower_bound``), a lower bound on
    k_pi(N), and the classes of G/N; an N that lower bound leaves open is
    counted on its own class table:

    - ``closure(mask)``: the normal subgroup generated by a union S of
      classes.  Each class reached is multiplied by the classes of S only,
      not by every class reached.  That reaches S, S^2, S^3, ..., the
      semigroup S generates, and in a finite group that is the subgroup <S>
      (x^-1 = x^(|x| - 1)).  The walk stops once the classes reached hold
      more than |G|/p elements, p the least prime of |G|: |<S>| divides
      |G|, so <S> is then G.  The lattice seeds and the normal cores read
      the same single-class entries.  The order reached is carried, each
      class adding its size as the walk reaches it.
    - ``fusion(mask)``: the classes of G/N, each lifted to G as its block,
      the support of C_i * N for one class i of it.  All blocks are built in
      one pass, each from the row of supports of its first class, but those
      of N = 1 (the single classes) and N = G (G) are written down.  The
      block orders of every fusion check that the blocks partition G into
      unions of cosets of N.  ``join(N, M)``, the class set of N * M, is
      the union of the blocks of N that meet M.
    - ``quotient_histogram(mask)``: prime support -> number of classes of
      G/N.  The order of x * N is the least e with x^e in N, read from
      x's power map.  G/1 is G, so N = 1 reads ``histogram()``.
    - ``power_map(i)``: the class power map of class i, entry e the class
      of rep_i^e for e < |rep_i|, one product per power through rep_i's
      table.  The walks that gave the class orders (``conjugacy_classes``)
      are kept as the power maps of their classes; any other is built on
      first use.  ``rational_class(i)`` reads from it the
      classes of rep_i^e for e coprime to |rep_i| (Holt, Eick and O'Brien,
      *Handbook of Computational Group Theory*): their members generate
      conjugates of <rep_i>, so they all have one closure: the lattice
      closes one class per rational class, and the normal cores skip the
      rational class of each closure they reject.

    The prime support of an element order is the bitmask of the primes of
    |G| that divide it: bit t for ``primes[t]``.  An element is a
    pi-element exactly when its support lies inside the bits of pi, so one
    histogram of classes per support answers k_pi for every pi
    (``pi_count``), a sum over at most 2^r supports for r primes of |G|;
    ``histogram()`` is the one of G.

    The classes of each prime support are one bitset, built once:
    ``histogram()`` counts them, ``pi_classes(bits)`` joins those inside
    the bits of pi, whose popcounts the quotient suite reads, and
    ``normal_core(primes)`` closes inside that join the classes allowed in
    the largest normal ``primes``-subgroup (O_pi'(G), for the primes
    outside pi) and returns that subgroup's class bitset, once per bitmask
    of primes.
    ``order(mask)`` sums the class sizes of a bitset, so the lattice and
    the suites read the order of a normal subgroup, |O_pi'(G)| among them,
    with no subgroup built.

    A subgroup is normal exactly when it is a union of classes, so
    ``normal_mask(key)`` is the one lookup from an element set to a class
    bitset, and a normality test on the element set.  It keeps nothing per
    element set: the lattice holds the bitsets of the normal subgroups.
    """

    def __init__(self, group: PermGroup, reps: tuple[Images, ...], sizes: tuple[int, ...],
                 orders: tuple[int, ...], members: list[list[Images]],
                 index_of: dict[Images, int], power_maps: dict[int, list[int]]):
        self.group = group
        self.rep_images = reps  # class i: its least member's images,
        self._sizes = sizes  # its size
        self.class_orders = orders  # and the order of its elements
        self.members = members
        self._index_of = index_of
        k = len(sizes)
        self.full = (1 << k) - 1
        self.primes = tuple(prime_factors(group.order))
        # a union of classes holding more than |G|/p elements generates G
        self._lagrange = group.order // self.primes[0] if self.primes else 0
        # rows of the symmetric matrix of supports, each allocated on first
        # use, and the representatives' tables, built on the first support:
        # k_pi and the class sizes never need either
        self._supports: dict[int, list[int | None]] = defaultdict(lambda: [None] * k)
        self._tables: list[Images] | None = None
        self._closures: dict[int, int] = {}
        self._fusions: dict[int, list[int]] = {}
        self._power_maps = power_maps
        self._prime_supports: dict[int, int] = {}  # element order -> its support
        self._pi_bits: dict[frozenset[int], int] = {}
        self._pi_classes: dict[int, int] = {}  # pi_bits -> classes of pi-elements
        self._cores: dict[int, int] = {}  # pi_bits -> normal_core
        self._support_masks: dict[int, int] | None = None  # support -> its classes
        self._histogram: dict[int, int] | None = None

    @property
    def k(self) -> int:
        return len(self._sizes)

    @cached_property
    def classes(self) -> tuple[ConjClass, ...]:
        """The classes as records, each with one ``Permutation``, its
        representative, made on first read from the class tuples
        (``rep_images``, the sizes and ``class_orders``), which is what the
        library reads."""
        return tuple(map(ConjClass, map(Permutation._make, self.rep_images), self._sizes,
                         self.class_orders))

    def class_of(self, p: Permutation) -> int:
        idx = self._index_of.get(p.images)
        if idx is None:
            raise NotInGroupError(f"element not in group: {p!r}")
        return idx

    def sizes(self) -> list[int]:
        return list(self._sizes)

    def order(self, mask: int) -> int:
        """The number of elements in the classes of ``mask``: the order of a
        normal subgroup, given its class set."""
        sizes, total = self._sizes, 0
        while mask:
            low = mask & -mask
            total += sizes[low.bit_length() - 1]
            mask ^= low
        return total

    def normal_mask(self, key) -> int | None:
        """Bitset of the classes the subgroup with element set ``key`` meets,
        when they hold exactly its elements (it is normal); None otherwise.
        The order of those classes is summed over the classes met, with no
        walk of the bitset.  An element outside G raises
        ``NotInGroupError``."""
        met = set(map(self._index_of.get, key))
        if None in met:
            outsider = next(im for im in key if im not in self._index_of)
            raise NotInGroupError(f"element not in group: {Permutation._make(outsider)!r}")
        if sum(map(self._sizes.__getitem__, met)) != len(key):
            return None
        return sum(1 << i for i in met)

    def _support(self, i: int, j: int) -> int:
        """Bitset of the classes met by C_i * C_j: the classes of the products
        x * y, y in the smaller class and x the other's representative, read
        through x's table (y * x is conjugate to x * y, and each class of
        C_i * C_j holds such a y * x).  Every representative's table is built
        once, on the first support; each support is one pass over y."""
        rows = self._supports
        met = rows[i][j]
        if met is None:
            if self._tables is None:
                self._tables = list(map(_table, self.rep_images))
            small, big = (i, j) if self._sizes[i] <= self._sizes[j] else (j, i)
            table, index_of = self._tables[big], self._index_of
            met = sum({1 << index_of[y.translate(table)] for y in self.members[small]})
            rows[i][j] = rows[j][i] = met
        return met

    def closure(self, mask: int, inside: int | None = None) -> int | None:
        """Smallest union of classes containing ``mask`` and closed under
        products: the normal subgroup the classes generate.  Each class
        reached is multiplied by the classes of ``mask`` only, and the walk
        stops as soon as the classes reached hold more than |G|/p elements,
        p the least prime of |G|: the order of the closure divides |G|, so
        it is then G.  The order reached is carried: each class adds its size
        as it is pushed onto the walk.  With the class set ``inside``, the
        answer is None when the closure leaves it, and the walk stops at the
        first class it reaches outside; only a closure inside is cached."""
        stray = 0 if inside is None else ~inside
        closed = self._closures.get(mask)
        if closed is None:
            sizes = self._sizes
            lagrange = self._lagrange
            gens = list(_bits(mask))
            todo = list(gens)
            closed = mask
            reached = sum(map(sizes.__getitem__, gens))
            while todo and reached <= lagrange:
                i = todo.pop()
                row = self._supports[i]
                for j in gens:
                    met = row[j]
                    if met is None:
                        met = self._support(i, j)
                    new = met & ~closed
                    if new:
                        if new & stray:
                            return None
                        closed |= new
                        for c in _bits(new):
                            reached += sizes[c]
                            todo.append(c)
                        if reached > lagrange:
                            break
            if reached > lagrange:
                closed = self.full
            if not closed & stray:
                self._closures[mask] = closed
        return None if closed & stray else closed

    def fusion(self, normal: int) -> list[int]:
        """The classes of G/N, for the normal subgroup N with class set
        ``normal``, as bitsets of G-classes in order of their first G-class.
        The block of class i, the class of x * N (x in class i) lifted to G,
        is the support of C_i * N: the union of row i of the supports over
        the classes of N.  One pass builds the block of each class that no
        earlier block covers; the first block is N itself, the block of the
        identity's class.  G/1 (one block per class) and G/G (the block G)
        need no support.  The block orders check that the blocks partition G
        into unions of cosets of N.  Cached per N."""
        blocks = self._fusions.get(normal)
        if blocks is None:
            if normal == 1:  # the identity's class alone
                blocks = [1 << i for i in range(self.k)]
            elif normal == self.full:
                blocks = [normal]
            else:
                blocks = self._blocks(normal)
            orders = list(map(self.order, blocks))
            covered = 0
            for block in blocks:
                covered |= block
            n = orders[0]
            if (covered != self.full or blocks[0] != normal
                    or sum(orders) != self.group.order or any(o % n for o in orders)):
                raise AssertionError("class fusion does not partition the group into cosets")
            self._fusions[normal] = blocks
        return blocks

    def _blocks(self, normal: int) -> list[int]:
        """The fusion blocks of N, built from the rows of supports."""
        in_normal = list(_bits(normal))
        blocks = []
        covered = 0
        for i in range(self.k):
            if covered >> i & 1:
                continue
            row = self._supports[i]
            met = 0
            for j in in_normal:
                support = row[j]
                met |= self._support(i, j) if support is None else support
            blocks.append(met)
            covered |= met
        return blocks

    def join(self, normal: int, other: int) -> int:
        """Class set of N * M: the union of the fusion blocks of N that meet
        the class set ``other`` of M."""
        mask = 0
        for block in self.fusion(normal):
            if block & other:
                mask |= block
        return mask

    def prime_support(self, order: int) -> int:
        """Bitmask of the primes of |G| dividing ``order`` (a divisor of |G|):
        bit t for ``primes[t]``.  Memoised per order."""
        support = self._prime_supports.get(order)
        if support is None:
            support = self._prime_supports[order] = sum(
                1 << t for t, p in enumerate(self.primes) if order % p == 0)
        return support

    def pi_bits(self, pi) -> int:
        """Bitmask of the primes of |G| that lie in ``pi``; a prime outside
        |G| divides no element order, so it has no bit.  Memoised per
        frozenset."""
        pi = frozenset(pi)
        bits = self._pi_bits.get(pi)
        if bits is None:
            bits = self._pi_bits[pi] = sum(
                1 << t for t, p in enumerate(self.primes) if p in pi)
        return bits

    def _masks_by_support(self) -> dict[int, int]:
        """Prime support -> bitset of the classes with that support, in order
        of the first class of each support.  Built once."""
        masks = self._support_masks
        if masks is None:
            masks = self._support_masks = {}
            for i, order in enumerate(self.class_orders):
                support = self.prime_support(order)
                masks[support] = masks.get(support, 0) | 1 << i
        return masks

    def histogram(self) -> dict[int, int]:
        """Prime support -> number of classes of G with that support, each
        read from the support's class bitset.  Built once."""
        if self._histogram is None:
            self._histogram = {support: classes.bit_count()
                               for support, classes in self._masks_by_support().items()}
        return self._histogram

    def pi_classes(self, bits: int) -> int:
        """Bitset of the classes of pi-elements, for ``bits`` the primes of
        pi (``pi_bits``): those whose prime support lies inside ``bits``.
        Memoised per bitmask."""
        mask = self._pi_classes.get(bits)
        if mask is None:
            mask = 0
            for support, classes in self._masks_by_support().items():
                if not support & ~bits:
                    mask |= classes
            self._pi_classes[bits] = mask
        return mask

    def k_pi_lower_bound(self, normal: int, bits: int) -> int:
        """The number of G-classes of pi-elements inside the class set
        ``normal`` of N, for ``bits`` the primes of pi.  Each is a union of
        N-classes, so this is at most k_pi(N)."""
        return (self.pi_classes(bits) & normal).bit_count()

    def normal_core(self, primes) -> int:
        """The class bitset of the largest normal subgroup whose order has
        only primes in ``primes``.  Cached per bitmask of ``primes``
        (``pi_bits``).

        A group is a ``primes``-group exactly when all its elements are
        ``primes``-elements, so the core lies in the allowed classes: those
        whose prime support lies inside the bits of ``primes``
        (``pi_classes``).  The core is the union of the
        closures, walked with the allowed classes as their bound, that stay
        inside them: each is a normal ``primes``-subgroup, and each class of
        the core has its closure inside the core.  A class that an earlier
        closure covers is not closed, nor is one in the rational class of a
        class whose closure left the allowed classes, as it has that
        closure.  O_pi'(G) is the core of the primes of |G| outside pi."""
        bits = self.pi_bits(primes)
        core = self._cores.get(bits)
        if core is not None:
            return core
        allowed = self.pi_classes(bits)
        core = 0
        rejected = 0  # the rational classes of the closures that left
        for i in _bits(allowed):
            if (core | rejected) >> i & 1:
                continue
            mask = self.closure(1 << i, allowed)
            if mask is None:
                rejected |= self.rational_class(i)
            else:
                core |= mask
        self._cores[bits] = core
        return core

    def quotient_histogram(self, normal: int) -> dict[int, int]:
        """Prime support of the element order in G/N -> number of classes of
        G/N, for the normal subgroup N with class set ``normal``.  The order
        of x * N, x the representative of a fusion block's first class, is
        the least e with x^e in N: starting from |x|, each prime is divided
        out while the power stays in N, read from x's power map.  G/1 is G,
        so N = 1 reads ``histogram()`` and walks no powers."""
        if normal == 1:
            return self.histogram()
        counts: dict[int, int] = {}
        for block in self.fusion(normal):
            walk = self.power_map((block & -block).bit_length() - 1)
            order = len(walk)
            for p in self.primes:
                while order % p == 0 and normal >> walk[order // p] & 1:
                    order //= p
            support = self.prime_support(order)
            counts[support] = counts.get(support, 0) + 1
        return counts

    def power_map(self, i: int) -> list[int]:
        """The class power map of class i: entry e is the class of rep_i ** e,
        for 0 <= e < |rep_i|.  Each power is one product through rep_i's
        table, starting from the identity (class 0: its images are the least
        of all).  Kept from ``conjugacy_classes`` when its order walk made
        it, else built on first use."""
        walk = self._power_maps.get(i)
        if walk is None:
            walk = self._power_maps[i] = _power_walk(self.rep_images[i], self._index_of)
        return walk

    def rational_class(self, i: int) -> int:
        """Bitset of the classes of rep_i ** e for e coprime to |rep_i|: the
        rational class of class i, the classes whose members generate a
        conjugate of <rep_i>.  They all have the normal closure of class i,
        so one closure per rational class reads every seed of the lattice."""
        walk = self.power_map(i)
        n = len(walk)
        return sum({1 << c for e, c in enumerate(walk) if gcd(e, n) == 1})

    def elements(self, mask: int) -> list[Images]:
        """Images of the members of the classes in ``mask``."""
        return [im for i in _bits(mask) for im in self.members[i]]


def _power_walk(rep: Images, index_of: dict[Images, int]) -> list[int]:
    """The classes of rep^0 (class 0, the identity's), rep^1, ... up to the
    last power before the identity comes back (``perm.powers``): the class
    power map of rep, whose length is |rep|."""
    return [0, *map(index_of.__getitem__, powers(rep))]


def conjugacy_classes(group: PermGroup) -> ClassTable:
    """The class table of the group, by a conjugation-orbit sweep over the
    group's images list (``perm.conjugation_orbits``).

    Deterministic: elements come in the order of that list, each
    orbit is explored breadth-first with generators in list order and kept as
    its class's member list, and classes are numbered by their least images.
    The sweep's dict from images to orbit numbers, renumbered, is the
    table's index of classes.  Class orders come from power walks
    (``_power_walk``), one for each class, in class order, whose order no
    earlier walk gave: a walk of length m gives the class of its e-th power
    the order m / gcd(e, m), and it is kept as the walked class's power map.
    """
    return group.cached("class_table", _class_table, group)


def _class_table(group: PermGroup) -> ClassTable:
    orbits, index_of = conjugation_orbits(group._element_images(), group.moving_pairs())
    least = [min(orbit) for orbit in orbits]
    ranked = sorted(range(len(orbits)), key=least.__getitem__)
    rank = [0] * len(orbits)
    for r, i in enumerate(ranked):
        rank[i] = r
    index_of = {im: rank[i] for im, i in index_of.items()}
    reps = tuple(map(least.__getitem__, ranked))
    orders = [0] * len(orbits)
    power_maps = {}
    for r, rep in enumerate(reps):
        if not orders[r]:
            walk = power_maps[r] = _power_walk(rep, index_of)
            m = len(walk)
            for e, c in enumerate(walk):
                orders[c] = m // gcd(e, m)
    return ClassTable(group, reps, tuple(len(orbits[i]) for i in ranked), tuple(orders),
                      [orbits[i] for i in ranked], index_of, power_maps)


def k_pi(group: PermGroup, pi) -> int:
    """Number of conjugacy classes consisting of pi-elements, read from the
    prime-support histogram of the class table."""
    table = conjugacy_classes(group)
    return pi_count(table.histogram(), table.pi_bits(validate_pi(pi)))


def all_d_p_one(group: PermGroup, pi) -> bool:
    """True when k_p(G) = |G|_p, that is d_p(G) = 1, for every p in pi
    dividing |G|."""
    singles = [frozenset([p]) for p in sorted(validate_pi(pi)) if group.order % p == 0]
    return all(k_pi(group, p) == pi_part(group.order, p) for p in singles)
