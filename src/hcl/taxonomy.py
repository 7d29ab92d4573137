"""Rooted class hierarchy with level, ancestor-table, LCA and height queries.

Classes are identified by their full path string ("1/2/5", components
joined by ``SEPARATOR``); integer ids are assigned by lexicographic path
order so every downstream artifact is deterministic. An implicit virtual
root sits above all top-level classes at level 0. It is never a scored
class; queries that can land on it return the sentinel ``VIRTUAL_ROOT``.

A ``Taxonomy`` stores the names and two read-only int64 arrays indexed by
class id: ``parent_ids`` (``VIRTUAL_ROOT`` for a top-level class) and
``level`` (1 for a top-level class). Every other query (level buckets,
heights, leaves, the ancestor table) is derived from them once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

VIRTUAL_ROOT = -1
SEPARATOR = "/"


@dataclass(eq=False)
class Taxonomy:
    """Immutable class hierarchy. Build via :func:`parse_hierarchy`."""

    class_names: tuple[str, ...]
    parent_ids: np.ndarray
    level: np.ndarray

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def max_level(self) -> int:
        return int(self.level.max())

    @cached_property
    def _name_to_id(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.class_names)}

    def id_of(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise ValueError(f"unknown class path {name!r}") from None

    def _check_id(self, c: int) -> int:
        c = int(c)
        if not 0 <= c < self.n_classes:
            raise ValueError(f"class id {c} out of range [0, {self.n_classes})")
        return c

    @cached_property
    def heights(self) -> np.ndarray:
        """Per-class height: edges on the longest downward path to a leaf."""
        h = np.zeros(self.n_classes, dtype=np.int64)
        # children are always one level deeper, so a reverse level sweep
        # finishes every class before its parent reads it
        for ids in reversed(self.levels_index[2:]):
            np.maximum.at(h, self.parent_ids[ids], h[ids] + 1)
        return h

    @cached_property
    def levels_index(self) -> tuple[np.ndarray, ...]:
        """Class ids bucketed by level; index 0 (virtual root) is empty.

        Ids inside each bucket are ascending, and the concatenation of all
        buckets is a permutation of 0..C-1.
        """
        return tuple(np.flatnonzero(self.level == lvl) for lvl in range(self.max_level + 1))

    @cached_property
    def leaf_ids(self) -> np.ndarray:
        return np.flatnonzero(self.heights == 0)

    @cached_property
    def path_ids(self) -> np.ndarray:
        """C x max_level ancestor table: row c holds c's ancestor at each of
        levels 1..level(c), c itself last, then ``VIRTUAL_ROOT``.

        Two classes share an ancestor at a level exactly when they share the
        whole row prefix up to it, so ancestor and LCA queries are row reads.
        """
        paths = np.full((self.n_classes, self.max_level), VIRTUAL_ROOT, dtype=np.int64)
        for lvl, ids in enumerate(self.levels_index[1:], start=1):
            if lvl > 1:
                paths[ids] = paths[self.parent_ids[ids]]
            paths[ids, lvl - 1] = ids
        return paths

    def lca(self, a: int, b: int) -> int:
        """Deepest ancestor-or-self of both a and b; VIRTUAL_ROOT if none."""
        a, b = self._check_id(a), self._check_id(b)
        row = self.path_ids[a]
        # rows agree on a level only if they agree on every shallower one
        k = int(((row == self.path_ids[b]) & (row != VIRTUAL_ROOT)).sum())
        return int(row[k - 1]) if k else VIRTUAL_ROOT

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name in self.class_names:
                fh.write(name + "\n")


def parse_hierarchy(paths) -> Taxonomy:
    """Build a Taxonomy from ``SEPARATOR``-delimited path strings.

    Missing intermediate prefixes are auto-created; duplicate input paths and
    empty paths/components are rejected.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("empty hierarchy: no paths given")
    seen = set()
    # every prefix name -> (its parent's name or None, its level); a prefix
    # ends where ``split`` found a separator, so it is the join of the parts
    # before it, and it splits into those same parts
    prefixes: dict[str, tuple[str | None, int]] = {}
    for p in paths:
        if p in seen:
            raise ValueError(f"duplicate hierarchy path {p!r}")
        seen.add(p)
        parts = p.split(SEPARATOR)
        if "" in parts:
            raise ValueError(f"malformed hierarchy path {p!r}: empty component")
        parent, end = None, -len(SEPARATOR)
        for lvl, part in enumerate(parts, start=1):
            end += len(part) + len(SEPARATOR)
            name = p[:end]
            prefixes[name] = (parent, lvl)
            parent = name

    names = tuple(sorted(prefixes))
    name_to_id = {n: i for i, n in enumerate(names)}
    parent_ids = np.asarray(
        [VIRTUAL_ROOT if (q := prefixes[n][0]) is None else name_to_id[q] for n in names],
        dtype=np.int64,
    )
    level = np.asarray([prefixes[n][1] for n in names], dtype=np.int64)
    parent_ids.flags.writeable = level.flags.writeable = False
    return Taxonomy(class_names=names, parent_ids=parent_ids, level=level)


def load_hierarchy_file(path) -> Taxonomy:
    """Read a hierarchy text file: one path per line, '#' comments ignored."""
    paths = []
    with open(path, encoding="utf-8-sig") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                paths.append(line)
    return parse_hierarchy(paths)
