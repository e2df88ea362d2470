"""Permutation groups backed by a base and strong generating set, or by
their element set.

The stabilizer chain is built with a deterministic Schreier-Sims: base points
are taken in ascending order among the points a generator (or sift residue)
moves, orbits are explored breadth-first with generators in list order, and
no randomization is used anywhere.  Two constructions from the same generator
list therefore produce identical chains, identical element enumeration order,
and identical random-element streams for a fixed seed.  A group built with
its element set (every subgroup) answers order, membership and its element
list from the set, in sorted image order, and builds no chain for them.
Elements are handled as their images (``Permutation.images``: bytes up to
degree 256, int tuples above), and every product of them goes through the
kernel in ``perm``.
"""

import random
from math import prod

from .errors import DegreeMismatchError
from .perm import Images, Permutation, left_products


class _Level:
    __slots__ = ("point", "gens", "transversal", "orbit")

    def __init__(self, point: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {}
        self.orbit: list[int] = []


def _sift(levels: list[_Level], h: Permutation, start: int) -> tuple[Permutation, int]:
    """Sift h through ``levels[start:]``: the residue, and the index of the
    level whose orbit misses it (``len(levels)`` when it passes them all)."""
    for i in range(start, len(levels)):
        lvl = levels[i]
        x = h.images[lvl.point]
        if x == lvl.point:
            continue
        u = lvl.transversal.get(x)
        if u is None:
            return h, i
        h = u.inverse() * h
    return h, len(levels)


class PermGroup:
    """A finite permutation group on {0..degree-1} given by generators.

    ``base_hint`` seeds the base with the given points (in order) before the
    automatic ascending choice kicks in; it exists so tests can regenerate
    the chain with a different base and compare invariants.  ``elements``
    is the element set as images, when the caller already has it; it
    is trusted, not checked against the generators.
    """

    def __init__(self, generators, degree: int | None = None, base_hint=(),
                 elements: frozenset | None = None):
        generators = tuple(generators)
        if not generators:
            raise ValueError("a group needs at least one generator (identity for the trivial group)")
        if degree is None:
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise DegreeMismatchError(
                    f"generator degree {g.degree} != group degree {degree}"
                )
        self.degree = degree
        self.generators = generators
        self._base_hint = tuple(base_hint)
        self._levels: list[_Level] | None = None
        self._element_set: frozenset[Images] | None = elements
        self._order: int | None = None if elements is None else len(elements)
        self.cache: dict = {}

    # -- stabilizer chain ------------------------------------------------

    def _ensure_chain(self):
        if self._levels is None:
            self._build_chain()
        return self._levels

    def _build_chain(self):
        degree = self.degree
        gens: list[Permutation] = []
        seen = set()
        for g in self.generators:
            if not g.is_identity() and g.images not in seen:
                seen.add(g.images)
                gens.append(g)

        levels: list[_Level] = []
        base_points: set[int] = set()

        def add_level(point: int):
            levels.append(_Level(point))
            base_points.add(point)

        def place(g: Permutation):
            # g joins every level group it belongs to: levels 0..j where
            # base[j] is the first base point g moves.
            for lvl in levels:
                lvl.gens.append(g)
                if g.images[lvl.point] != lvl.point:
                    return
            raise AssertionError("generator fixes the whole base")

        def rebuild_orbit(lvl: _Level):
            ident = Permutation.identity(degree)
            lvl.transversal = {lvl.point: ident}
            lvl.orbit = [lvl.point]
            i = 0
            while i < len(lvl.orbit):
                x = lvl.orbit[i]
                i += 1
                ux = lvl.transversal[x]
                for g in lvl.gens:
                    y = g.images[x]
                    if y not in lvl.transversal:
                        lvl.transversal[y] = g * ux
                        lvl.orbit.append(y)

        def extend_base_for(g: Permutation):
            if all(g.images[lvl.point] == lvl.point for lvl in levels):
                add_level(min(p for p in range(degree) if g.images[p] != p))

        for pt in self._base_hint:
            if 0 <= pt < degree and pt not in base_points:
                add_level(pt)
        for g in gens:
            extend_base_for(g)
        for g in gens:
            place(g)
        for lvl in levels:
            rebuild_orbit(lvl)

        # Verify Schreier generators level by level, deepest first; a
        # non-identity residue becomes a new strong generator and sends
        # verification back to its level.
        i = len(levels) - 1
        while i >= 0:
            lvl = levels[i]
            clean = True
            for x in sorted(lvl.transversal):
                ux = lvl.transversal[x]
                for g in lvl.gens:
                    uy = lvl.transversal[g.images[x]]
                    sg = uy.inverse() * (g * ux)
                    if sg.is_identity():
                        continue
                    h, j = _sift(levels, sg, i + 1)
                    if h.is_identity():
                        continue
                    if j == len(levels):
                        add_level(min(h.moved_points()))
                    place(h)
                    for m in range(j + 1):
                        rebuild_orbit(levels[m])
                    i = j
                    clean = False
                    break
                if not clean:
                    break
            if clean:
                i -= 1

        self._levels = levels
        self._order = prod(len(lvl.transversal) for lvl in levels)

    # -- queries ----------------------------------------------------------

    @property
    def order(self) -> int:
        if self._order is None:
            self._build_chain()
        return self._order

    @property
    def base(self) -> tuple[int, ...]:
        return tuple(lvl.point for lvl in self._ensure_chain())

    def sift(self, p: Permutation) -> Permutation:
        """Residue of p after sifting through the chain; identity iff p in G."""
        if p.degree != self.degree:
            raise DegreeMismatchError(
                f"element degree {p.degree} != group degree {self.degree}"
            )
        return _sift(self._ensure_chain(), p, 0)[0]

    def contains(self, p: Permutation) -> bool:
        if self._element_set is None:
            return self.sift(p).is_identity()
        return p.images in self._element_set

    def __contains__(self, p: Permutation) -> bool:
        return self.contains(p)

    def elements(self):
        """Deterministic iterator over all elements, exactly ``order`` of them.

        Elements are the transversal products u_0 * u_1 * ... of the chain,
        with orbit points taken in ascending order at every level and the
        deepest level varying fastest.  The products are images, built from
        the deepest level up: the products of levels j, j+1, ... are the
        left products (``perm.left_products``) of each u_j in turn with the
        products of the levels below, so each transversal element's table is
        built once and each product is one translate.  No cap is checked
        here; a run checks its one element cap as it starts
        (``Config.check_element_cap``).
        """
        products = [Permutation.identity(self.degree).images]
        for lvl in reversed(self._ensure_chain()):
            longer = []  # the products of this level and the levels below
            for x in sorted(lvl.transversal):
                longer += left_products(lvl.transversal[x].images, products)
            products = longer
        yield from map(Permutation._make, products)

    def element_list(self) -> list[Permutation]:
        """All elements, cached: the given element set in sorted image order,
        otherwise ``list(self.elements())`` in chain order."""
        cached = self.cache.get("elements")
        if cached is None:
            if self._element_set is None:
                cached = list(self.elements())
            else:
                cached = [Permutation._make(im) for im in sorted(self._element_set)]
            self.cache["elements"] = cached
        return cached

    def element_set(self) -> frozenset[Images]:
        """The images of all elements; for a group given by generators
        alone, read once from ``element_list()``."""
        if self._element_set is None:
            self._element_set = frozenset(p.images for p in self.element_list())
        return self._element_set

    def random_element(self, rng: random.Random) -> Permutation:
        """Uniformly random element: independent uniform picks, one per level."""
        g = Permutation.identity(self.degree)
        for lvl in self._ensure_chain():
            pts = sorted(lvl.transversal)
            g = g * lvl.transversal[pts[rng.randrange(len(pts))]]
        return g

    def is_abelian(self) -> bool:
        gens = self.generators
        for i, a in enumerate(gens):
            for b in gens[i + 1 :]:
                if a * b != b * a:
                    return False
        return True

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"
