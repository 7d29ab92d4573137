"""Rooted class hierarchy with level, ancestor, LCA and height queries.

Classes are identified by their full path string ("1/2/5"); integer ids are
assigned by lexicographic path order so every downstream artifact is
deterministic. An implicit virtual root sits above all top-level classes at
level 0. It is never a scored class; queries that can land on it return the
sentinel ``VIRTUAL_ROOT``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

VIRTUAL_ROOT = -1


@dataclass
class Taxonomy:
    """Immutable class hierarchy. Build via :func:`parse_hierarchy`."""

    class_names: tuple[str, ...]
    parent: tuple[int | None, ...]
    children: tuple[tuple[int, ...], ...]
    level: tuple[int, ...]
    separator: str = "/"
    _name_to_id: dict[str, int] = field(repr=False, default_factory=dict)

    def __post_init__(self):
        if not self._name_to_id:
            self._name_to_id = {name: i for i, name in enumerate(self.class_names)}

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @cached_property
    def max_level(self) -> int:
        return max(self.level)

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
        buckets = [[] for _ in range(self.max_level + 1)]
        for c in range(self.n_classes):
            buckets[self.level[c]].append(c)
        return tuple(np.asarray(b, dtype=np.int64) for b in buckets)

    @cached_property
    def parent_ids(self) -> np.ndarray:
        """Parent id of every class as an array; ``VIRTUAL_ROOT`` for top-level
        classes. Lets callers gather parent columns in one indexing step."""
        return np.asarray(
            [VIRTUAL_ROOT if p is None else p for p in self.parent], dtype=np.int64
        )

    @property
    def top_level_ids(self) -> np.ndarray:
        return self.levels_index[1]

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

    def ancestors(self, c: int) -> list[int]:
        """Strict ancestors of c, nearest first, excluding the virtual root."""
        c = self._check_id(c)
        return self.path_ids[c, : self.level[c] - 1][::-1].tolist()

    def lca(self, a: int, b: int) -> int:
        """Deepest ancestor-or-self of both a and b; VIRTUAL_ROOT if none."""
        a, b = self._check_id(a), self._check_id(b)
        row = self.path_ids[a]
        # rows agree on a level only if they agree on every shallower one
        k = int(((row == self.path_ids[b]) & (row != VIRTUAL_ROOT)).sum())
        return int(row[k - 1]) if k else VIRTUAL_ROOT

    def node_height(self, v: int) -> int:
        """Height of a class id, or of the whole tree for VIRTUAL_ROOT."""
        if v == VIRTUAL_ROOT:
            return self.max_level
        return int(self.heights[self._check_id(v)])

    def emit_paths(self) -> list[str]:
        """Path strings for every class, in id order (round-trips via parse)."""
        return list(self.class_names)

    def to_file(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name in self.class_names:
                fh.write(name + "\n")


def parse_hierarchy(paths, separator: str = "/") -> Taxonomy:
    """Build a Taxonomy from separator-delimited path strings.

    Missing intermediate prefixes are auto-created; duplicate input paths and
    empty paths/components are rejected.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("empty hierarchy: no paths given")
    seen = set()
    all_names = set()
    for p in paths:
        if p in seen:
            raise ValueError(f"duplicate hierarchy path {p!r}")
        seen.add(p)
        parts = p.split(separator)
        if any(part == "" for part in parts):
            raise ValueError(f"malformed hierarchy path {p!r}: empty component")
        for i in range(1, len(parts) + 1):
            all_names.add(separator.join(parts[:i]))

    names = tuple(sorted(all_names))
    name_to_id = {n: i for i, n in enumerate(names)}
    parent: list[int | None] = []
    level: list[int] = []
    children: list[list[int]] = [[] for _ in names]
    for i, n in enumerate(names):
        parts = n.split(separator)
        level.append(len(parts))
        if len(parts) == 1:
            parent.append(None)
        else:
            p = name_to_id[separator.join(parts[:-1])]
            parent.append(p)
            children[p].append(i)
    return Taxonomy(
        class_names=names,
        parent=tuple(parent),
        children=tuple(tuple(c) for c in children),
        level=tuple(level),
        separator=separator,
    )


def load_hierarchy_file(path, separator: str = "/") -> Taxonomy:
    """Read a hierarchy text file: one path per line, '#' comments ignored."""
    paths = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                paths.append(line)
    return parse_hierarchy(paths, separator=separator)
