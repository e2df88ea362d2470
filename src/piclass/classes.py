"""Conjugacy classes, element centralizers, and pi-element classification."""

from dataclasses import dataclass
from math import gcd

from .errors import CapExceededError, NotInGroupError
from .group import DEFAULT_MAX_ELEMENTS, PermGroup
from .numtheory import is_pi_number, pi_part, validate_pi
from .perm import Permutation, conjugation_orbit, conjugation_pairs


@dataclass(frozen=True)
class ConjClass:
    rep: Permutation  # lexicographically least image tuple in the class
    size: int
    order: int  # element order, shared by the whole class


class ClassTable:
    """All conjugacy classes of a group plus an element -> class resolver."""

    def __init__(self, group: PermGroup, classes, index_of):
        self.group = group
        self.classes: tuple[ConjClass, ...] = tuple(classes)
        self._index_of: dict[tuple[int, ...], int] = index_of

    @property
    def k(self) -> int:
        return len(self.classes)

    def class_of(self, p: Permutation) -> int:
        idx = self._index_of.get(p.images)
        if idx is None:
            raise NotInGroupError(f"element not in group: {p!r}")
        return idx

    def sizes(self) -> list[int]:
        return [c.size for c in self.classes]


def conjugacy_classes(group: PermGroup, cap: int = DEFAULT_MAX_ELEMENTS) -> ClassTable:
    """Class table via a conjugation-orbit sweep over the full element list.

    Deterministic: elements come from the group's enumeration order and each
    orbit is explored breadth-first with generators in list order.  The result
    is cached on the group.
    """
    if group.order > cap:
        raise CapExceededError("class table", group.order, cap)
    cached = group.cache.get("class_table")
    if cached is not None:
        return cached

    elements = group.element_list(cap)
    pairs = conjugation_pairs(group.generators)
    index_of: dict[tuple[int, ...], int] = {}
    classes: list[ConjClass] = []
    for start in elements:
        if start.images in index_of:
            continue
        idx = len(classes)
        orbit = conjugation_orbit(start.images, pairs)
        for xim in orbit:
            index_of[xim] = idx
        rep = Permutation._make(min(orbit))
        classes.append(ConjClass(rep=rep, size=len(orbit), order=rep.order()))
    classes_sorted = sorted(range(len(classes)), key=lambda i: classes[i].rep.images)
    renumber = {old: new for new, old in enumerate(classes_sorted)}
    table = ClassTable(
        group,
        [classes[i] for i in classes_sorted],
        {images: renumber[idx] for images, idx in index_of.items()},
    )
    group.cache["class_table"] = table
    return table


def _bits(mask: int):
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClassAlgebra:
    """Unions of conjugacy classes as bitsets over a class table.

    A normal subgroup is a union of classes (Hulpke, "Computing normal
    subgroups", ISSAC 1998), so it is kept as a bitset: bit i stands for
    class i.  Everything is read from the supports of class products: the
    bitset of classes that C_i * C_j meets.  C_i * C_j = C_j * C_i is a union
    of classes, so its support is the set of classes met by x * C_i for one
    x in C_j; each support is built on first use from the smaller class.
    ``normal_masks`` maps the element set of each normal subgroup met so far
    (the lattice, the kernels of ``normal_k_pi``) to its bitset.
    """

    def __init__(self, table: ClassTable):
        self.table = table
        self.full = (1 << table.k) - 1
        members: list[list[tuple[int, ...]]] = [[] for _ in table.classes]
        for images, idx in table._index_of.items():
            members[idx].append(images)
        self.members = members
        # symmetric matrix of supports, None until built
        self._supports: list[list[int | None]] = [[None] * table.k for _ in table.classes]
        self._cosets: dict[int, list[int]] = {}
        self._fusions: dict[int, list[int]] = {}
        self._splits: dict[int, dict[int, int]] = {}
        self._powers: dict[tuple[int, int], int] = {}
        self.normal_masks: dict[frozenset[tuple[int, ...]], int] = {}

    def mask_of(self, elements) -> int:
        mask = 0
        for x in elements:
            mask |= 1 << self.table.class_of(x)
        return mask

    def _support(self, i: int, j: int) -> int:
        """Bitset of the classes met by C_i * C_j."""
        met = self._supports[i][j]
        if met is None:
            small, big = (i, j) if len(self.members[i]) <= len(self.members[j]) else (j, i)
            index_of = self.table._index_of
            get = self.table.classes[big].rep.images.__getitem__
            met = sum(1 << c for c in {index_of[tuple(map(get, yim))]
                                       for yim in self.members[small]})
            self._supports[i][j] = self._supports[j][i] = met
        return met

    def closure(self, mask: int) -> int:
        """Smallest union of classes containing ``mask`` and closed under
        products: the normal subgroup the classes generate."""
        todo = list(_bits(mask))
        done: list[int] = []
        while todo:
            i = todo.pop()
            done.append(i)
            row = self._supports[i]
            for j in done:
                met = row[j]
                if met is None:
                    met = self._support(i, j)
                new = met & ~mask
                if new:
                    mask |= new
                    todo.extend(_bits(new))
        return mask

    def coset_classes(self, normal: int) -> list[int]:
        """For the normal subgroup N with class set ``normal``: entry i is the
        bitset of classes met by x * N, x in class i; that is the support of
        C_i * N."""
        cosets = self._cosets.get(normal)
        if cosets is None:
            in_normal = list(_bits(normal))
            cosets = []
            for i, row in enumerate(self._supports):
                met = 0
                for j in in_normal:
                    support = row[j]
                    met |= self._support(i, j) if support is None else support
                cosets.append(met)
            self._cosets[normal] = cosets
        return cosets

    def join(self, normal: int, other: int) -> int:
        """Class set of N * M: the union of the supports of C_i * N, i in M."""
        cosets = self.coset_classes(normal)
        mask = normal
        for i in _bits(other & ~normal):
            mask |= cosets[i]
        return mask

    def fusion(self, normal: int) -> list[int]:
        """The classes of G/N as bitsets of G-classes, in order of their
        first G-class: the class of x * N, x in class i, lifts to the
        classes meeting x * N.  Cached per class set."""
        blocks = self._fusions.get(normal)
        if blocks is not None:
            return blocks
        blocks = []
        covered = 0
        for i, met in enumerate(self.coset_classes(normal)):
            if not covered >> i & 1:
                blocks.append(met)
                covered |= met
        n = self.order(normal)
        sizes = [self.order(b) for b in blocks]
        if covered != self.full or sum(sizes) != self.table.group.order or any(s % n for s in sizes):
            raise AssertionError("class fusion does not partition the group into cosets")
        self._fusions[normal] = blocks
        return blocks

    def class_splits(self, normal: int, gens) -> dict[int, int]:
        """For the normal subgroup N with class set ``normal``, generated by
        ``gens``: each class i in N mapped to the number of N-classes it
        splits into.  G permutes the N-orbits on a G-class C inside N
        transitively, so they share one size |x^N| and C splits into
        |C| / |x^N| classes of N: one orbit walk per class.  That split is
        |G : N C_G(x)|, so it divides both |C| and |G : N|; no walk is needed
        when they are coprime (N = G, or C a single element, among others).
        Cached per class set."""
        splits = self._splits.get(normal)
        if splits is None:
            classes = self.table.classes
            index = self.table.group.order // self.order(normal)
            pairs = conjugation_pairs(gens)
            splits = {}
            for i in _bits(normal):
                size = classes[i].size
                if gcd(size, index) == 1:
                    splits[i] = 1
                else:
                    splits[i] = size // len(conjugation_orbit(classes[i].rep.images, pairs))
            self._splits[normal] = splits
        return splits

    def power_class(self, i: int, e: int) -> int:
        """The class of rep_i ** e, memoised per (class, exponent)."""
        key = (i, e)
        power = self._powers.get(key)
        if power is None:
            power = self._powers[key] = self.table.class_of(self.table.classes[i].rep ** e)
        return power

    def order(self, mask: int) -> int:
        classes = self.table.classes
        return sum(classes[i].size for i in _bits(mask))

    def elements(self, mask: int) -> list[tuple[int, ...]]:
        """Image tuples of the members of the classes in ``mask``."""
        return [im for i in _bits(mask) for im in self.members[i]]


def class_algebra(group: PermGroup, cap: int = DEFAULT_MAX_ELEMENTS) -> ClassAlgebra:
    """The class algebra over the group's class table, cached on the group."""
    algebra = group.cache.get("class_algebra")
    if algebra is None:
        algebra = ClassAlgebra(conjugacy_classes(group, cap))
        group.cache["class_algebra"] = algebra
    return algebra


def is_pi_element(x: Permutation, pi) -> bool:
    """True iff every prime factor of the element order lies in pi."""
    return is_pi_number(x.order(), validate_pi(pi))


def pi_part_of_element(x: Permutation, pi) -> tuple[Permutation, Permutation]:
    """The commuting (pi, pi')-factorization of x into powers of x.

    Returns (x_pi, x_pi') with x = x_pi * x_pi', both powers of x, the orders
    a pi-number and a pi'-number respectively.  The exponent for x_pi is the
    CRT solution e = 1 mod m_pi, e = 0 mod m_pi' on the element order m.
    """
    pi = validate_pi(pi)
    m = x.order()
    a = pi_part(m, pi)
    b = m // a
    if b == 1:
        return x, Permutation.identity(x.degree)
    if a == 1:
        return Permutation.identity(x.degree), x
    e = b * pow(b, -1, a)
    x_pi = x**e
    return x_pi, x ** (m + 1 - e)


def k_pi(group: PermGroup, pi, cap: int = DEFAULT_MAX_ELEMENTS) -> int:
    """Number of conjugacy classes consisting of pi-elements."""
    pi = validate_pi(pi)
    table = conjugacy_classes(group, cap)
    return sum(1 for c in table.classes if is_pi_number(c.order, pi))


def all_d_p_one(group: PermGroup, pi, cap: int = DEFAULT_MAX_ELEMENTS) -> bool:
    """True when k_p(G) = |G|_p, that is d_p(G) = 1, for every p in pi
    dividing |G|."""
    return all(k_pi(group, [p], cap) == pi_part(group.order, frozenset([p]))
               for p in sorted(validate_pi(pi)) if group.order % p == 0)
