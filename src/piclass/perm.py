"""Permutations of {0..n-1} as immutable image tuples.

Composition convention, fixed globally: (a * b)(x) = a(b(x)), i.e. apply b
first, then a.  Every other module relies on this choice.

This module owns the permutation kernel: ``right_multiplier(b)``, the map
a -> a * b on image tuples, is one C-level ``operator.itemgetter``, and
``compose_images`` applies it once.  ``Permutation.__mul__``, the
conjugations and the conjugation walks are built on them; no other module
composes image tuples by hand.
"""

import math
import re
from collections.abc import Callable
from operator import index, itemgetter

from .errors import DegreeMismatchError

_CYCLE_GAP = re.compile(r"\)\s*\(")

_IDENTITY_IMAGES: dict[int, tuple[int, ...]] = {}


def _identity_images(n: int) -> tuple[int, ...]:
    images = _IDENTITY_IMAGES.get(n)
    if images is None:
        images = tuple(range(n))
        _IDENTITY_IMAGES[n] = images
    return images


class Permutation:
    """A bijection on {0..n-1}, stored as the tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        try:
            images = tuple(map(index, images))
        except TypeError:
            raise ValueError(f"not a permutation: non-integer image in {images!r}") from None
        n = len(images)
        if sorted(images) != list(range(n)):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
        self.images = images

    @classmethod
    def _make(cls, images: tuple[int, ...]) -> "Permutation":
        # Internal fast path: caller guarantees images is a bijection.
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls._make(_identity_images(n))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from disjoint cycles given as point sequences."""
        images = list(range(degree))
        seen = set()
        for cycle in cycles:
            for pt in cycle:
                if not 0 <= pt < degree:
                    raise ValueError(f"point out of range: {pt} (degree {degree})")
                if pt in seen:
                    raise ValueError(f"point repeated across cycles: {pt}")
                seen.add(pt)
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls._make(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (a * b)(x) = a(b(x))
        a = self.images
        if len(a) != len(other.images):
            raise DegreeMismatchError(
                f"degree mismatch: {len(a)} vs {len(other.images)}"
            )
        return Permutation._make(compose_images(a, other.images))

    def inverse(self) -> "Permutation":
        images = self.images
        inv = [0] * len(images)
        for i, j in enumerate(images):
            inv[j] = i
        return Permutation._make(tuple(inv))

    def __pow__(self, k: int) -> "Permutation":
        if k < 0:
            return self.inverse() ** (-k)
        result = Permutation.identity(len(self.images))
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def order(self) -> int:
        """Least m >= 1 with p**m = identity: the lcm of the cycle lengths."""
        cycles = self.cycles()
        if not cycles:
            return 1
        return math.lcm(*(len(c) for c in cycles))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point, sorted by that point."""
        images = self.images
        seen = [False] * len(images)
        out = []
        for start in range(len(images)):
            if seen[start] or images[start] == start:
                continue
            cycle = [start]
            seen[start] = True
            x = images[start]
            while x != start:
                seen[x] = True
                cycle.append(x)
                x = images[x]
            out.append(tuple(cycle))
        return out

    def moved_points(self) -> list[int]:
        return [i for i, j in enumerate(self.images) if i != j]

    def cycle_string(self) -> str:
        """Disjoint-cycle notation over 0-based points; identity is ``()``."""
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        return f"Permutation[{self.degree}] {self.cycle_string()}"


def conjugate(g: Permutation, x: Permutation, ginv: Permutation | None = None) -> Permutation:
    """g * x * g^-1; pass ginv to reuse a precomputed inverse."""
    if ginv is None:
        ginv = g.inverse()
    return Permutation._make(conjugate_images((g.images, ginv.images), x.images))


# -- the kernel: composition and conjugation on image tuples -----------------
#
# itemgetter(*b)(a) is the tuple (a[b[0]], a[b[1]], ...), the images of a * b,
# read in C.  With one index itemgetter returns a scalar, so degree <= 1 takes
# a plain tuple instead.  A conjugation pair (g.images, g^-1.images) is all
# that x -> g x g^-1 needs: g x g^-1 = (g * x) * g^-1, and the walks over
# sets and orbits build the right multiplier of each g^-1 once per call.


def right_multiplier(b: tuple[int, ...]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The map a -> a * b on image tuples (a[b[q]] for each point q), built
    once for many a."""
    if len(b) > 1:
        return itemgetter(*b)
    return lambda a: tuple([a[q] for q in b])


def compose_images(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Images of a * b: a[b[q]] for each point q."""
    return right_multiplier(b)(a)


def conjugation_pairs(generators) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The conjugation pair of each generator, in list order."""
    return [(g.images, g.inverse().images) for g in generators]


def conjugate_images(pair, xim: tuple[int, ...]) -> tuple[int, ...]:
    """Images of g x g^-1, for pair = (g.images, g^-1.images) and x given by xim."""
    gim, ginvim = pair
    return compose_images(compose_images(gim, xim), ginvim)


def conjugate_set(pair, key: frozenset) -> frozenset:
    """g K g^-1 for a set K of image tuples (a subgroup's element set)."""
    gim, ginvim = pair
    times_ginv = right_multiplier(ginvim)
    return frozenset([times_ginv(compose_images(gim, t)) for t in key])


def conjugation_orbit(xim: tuple[int, ...], pairs, limit: int | None = None) -> list[tuple[int, ...]]:
    """The conjugates of xim under the group the pairs come from.

    Breadth-first, pairs in list order, so the order of the list is fixed by
    the input.  With a ``limit``, the walk stops as soon as it holds
    ``limit + 1`` conjugates and returns those.  Each conjugate cur is
    multiplied on the right once per step: g * cur by cur's multiplier,
    built once, then (g * cur) * g^-1 by g^-1's, built once per call.
    """
    steps = [(gim, right_multiplier(ginvim)) for gim, ginvim in pairs]
    orbit = [xim]
    seen = {xim}
    for cur in orbit:
        times_cur = right_multiplier(cur)
        for gim, times_ginv in steps:
            yim = times_ginv(times_cur(gim))
            if yim not in seen:
                seen.add(yim)
                orbit.append(yim)
                if limit is not None and len(orbit) > limit:
                    return orbit
    return orbit


def parse_cycle_text(text: str, degree: int) -> Permutation:
    """Parse disjoint-cycle notation like ``(0 1 2)(3 4)`` over 0-based points.

    ``()`` denotes the identity.  Points may be separated by spaces or commas.
    """
    s = _CYCLE_GAP.sub(")(", text.strip())
    if not s:
        raise ValueError("empty permutation text")
    if s == "()":
        return Permutation.identity(degree)
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"expected cycle notation, got {text!r}")
    cycles = []
    for chunk in s[1:-1].split(")("):
        parts = chunk.replace(",", " ").split()
        if not parts:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            cycle = [int(p) for p in parts]
        except ValueError:
            raise ValueError(f"bad point in {text!r}") from None
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"point repeated within a cycle: {text!r}")
        cycles.append(cycle)
    return Permutation.from_cycles(degree, cycles)
