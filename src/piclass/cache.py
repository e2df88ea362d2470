"""Content-addressed on-disk cache for computed invariants.

Keys hash the concrete group representation (degree plus the sorted list of
generator image sequences), the invariant name, its parameters, and the tool
version; the cache therefore never confuses relabeled or regenerated groups
with each other, and a version bump invalidates everything.  Values are JSON
with an embedded checksum: a corrupt or mismatched file (not UTF-8, not
JSON, not a JSON object) reads as a miss.  Only regular ``*.json`` files
count as entries.  Writes go through a temp file and an atomic rename
(single-writer per key).
"""

import hashlib
import json
import os
import tempfile

from . import __version__
from .errors import InvalidInputError
from .group import PermGroup


def group_key(group: PermGroup) -> str:
    """Canonical hash of the concrete representation (not isomorphism type)."""
    payload = json.dumps(
        {"degree": group.degree,
         "generators": sorted(list(g.images) for g in group.generators)},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def entry_key(group: PermGroup, invariant: str, params: dict | None = None) -> str:
    payload = json.dumps(
        {"group": group_key(group), "invariant": invariant,
         "params": params or {}, "version": __version__},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def _value_checksum(value) -> str:
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class InvariantCache:
    def __init__(self, directory: str):
        self.directory = directory
        try:
            os.makedirs(directory, exist_ok=True)
        except OSError as exc:  # the path or one of its parents is not a directory
            raise InvalidInputError(f"cache directory {directory}: {exc}") from None

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def get(self, key: str):
        """Value for the key, or None on miss, corruption, or version skew."""
        path = self._path(key)
        try:
            with open(path) as fh:
                entry = json.load(fh)
        except (OSError, ValueError):  # unreadable, not UTF-8 or not JSON
            return None
        if not isinstance(entry, dict) or entry.get("version") != __version__:
            return None
        value = entry.get("value")
        if entry.get("checksum") != _value_checksum(value):
            return None
        return value

    def put(self, key: str, value) -> None:
        entry = {
            "version": __version__,
            "key": key,
            "checksum": _value_checksum(value),
            "value": value,
        }
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(entry, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def _entry_files(self) -> list[str]:
        with os.scandir(self.directory) as it:
            return [e.name for e in it if e.name.endswith(".json") and e.is_file()]

    def keys(self) -> list[str]:
        return sorted(name[:-5] for name in self._entry_files())

    def clear(self) -> int:
        names = self._entry_files()
        for name in names:
            os.unlink(os.path.join(self.directory, name))
        return len(names)

    def verify(self, recompute) -> list[str]:
        """Recompute each entry via ``recompute(key) -> value`` and report
        mismatching keys; unknown keys are skipped by returning None."""
        bad = []
        for key in self.keys():
            stored = self.get(key)
            if stored is None:
                bad.append(key)
                continue
            fresh = recompute(key)
            if fresh is not None and fresh != stored:
                bad.append(key)
        return bad
