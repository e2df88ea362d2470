"""Run configuration: caps, budgets, census ranges, output options.

``max_elements`` is the one element cap.  It is checked once, against |G|,
where a run on G starts (``Config.check_element_cap``): every group a run
builds from G is a subgroup or a quotient of G, so none holds more elements.

``max_quotient_degree`` bounds nothing: the quotient suite counts the
classes of G/N in the class table of G and builds no G/N, and
``subgroups.quotient()`` keeps its own default cap.  Every report prints
it, so the field stays; it admits only that default.
"""

import json
from typing import NamedTuple

from .errors import CapExceededError, InvalidInputError
from .group import PermGroup

DEFAULT_MAX_ELEMENTS = 100_000
DEFAULT_MAX_DEGREE = 128
DEFAULT_SUBGROUP_CAP = 2000
DEFAULT_MAX_QUOTIENT_DEGREE = 2048
DEFAULT_HALL_BUDGET = 20

# Every report prints "workers": 1, so the field stays; it admits one value.
WORKERS_ERROR = "workers must be 1: the campaign runs on one thread"
# Every report prints "cache_dir": null, so the field stays; it admits one value.
CACHE_DIR_ERROR = "cache_dir must be null: piclass keeps no on-disk cache"
# Every report prints "max_quotient_degree": 2048, so the field stays; it
# admits one value.
MAX_QUOTIENT_DEGREE_ERROR = (f"max_quotient_degree must be {DEFAULT_MAX_QUOTIENT_DEGREE}: "
                             "no check builds G/N, so nothing reads it")


class _ConfigFields(NamedTuple):
    """The fields of ``Config``, in report order, with their defaults."""

    max_elements: int = DEFAULT_MAX_ELEMENTS
    max_degree: int = DEFAULT_MAX_DEGREE
    max_quotient_degree: int = DEFAULT_MAX_QUOTIENT_DEGREE
    subgroup_cap: int = DEFAULT_SUBGROUP_CAP
    hall_budget: int = DEFAULT_HALL_BUDGET
    workers: int = 1
    seed: int = 0
    max_order: int = 2000
    cyclic_max: int = 12
    dihedral_max_order: int = 16
    symmetric_max: int = 5
    alternating_max: int = 5
    include_quaternion: bool = True
    cache_dir: str | None = None
    output_format: str = "json"


class Config(_ConfigFields):
    """A run's configuration: an immutable record whose fields are checked
    when it is made, by keyword, by position or by ``_replace``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.cache_dir is not None:
            raise InvalidInputError(CACHE_DIR_ERROR)
        for name, kind in _ConfigFields.__annotations__.items():
            value = getattr(self, name)
            if kind is int:
                ok = isinstance(value, int) and not isinstance(value, bool)
            else:
                ok = isinstance(value, kind)
            if not ok:
                expected = kind.__name__ if isinstance(kind, type) else kind
                raise InvalidInputError(f"{name} must be {expected}, not {value!r}")
        for name in ("max_elements", "max_degree", "subgroup_cap", "max_order"):
            if getattr(self, name) < 1:
                raise InvalidInputError(f"{name} must be positive")
        if self.workers != 1:
            raise InvalidInputError(WORKERS_ERROR)
        if self.max_quotient_degree != DEFAULT_MAX_QUOTIENT_DEGREE:
            raise InvalidInputError(MAX_QUOTIENT_DEGREE_ERROR)
        if self.hall_budget < 0:
            raise InvalidInputError("hall_budget must be >= 0")
        if self.output_format not in ("json", "csv", "text"):
            raise InvalidInputError(f"unknown output format: {self.output_format!r}")
        return self

    @classmethod
    def _make(cls, iterable) -> "Config":
        # the base's _make (and so _replace) would skip the checks above
        return cls(*iterable)

    def check_element_cap(self, group: PermGroup) -> None:
        """Raise CapExceededError when |G| passes ``max_elements``; the
        order is read from G's chain and nothing is listed."""
        if group.order > self.max_elements:
            raise CapExceededError("element enumeration", group.order, self.max_elements)

    def census_ranges(self) -> "Config":
        # Kept only for perfbench/workloads.py, which passes it to
        # census_specs, until ROADMAP item 4(b) (as is suite.Limits).
        return self

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        if not isinstance(data, dict):
            raise InvalidInputError(f"a config must be a JSON object, not {data!r}")
        unknown = set(data) - set(cls._fields)
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)

    @classmethod
    def from_file(cls, path: str) -> "Config":
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not text, or not JSON
            raise InvalidInputError(f"config file {path}: {exc}") from None
        return cls.from_dict(data)


DEFAULT_CONFIG = Config()
