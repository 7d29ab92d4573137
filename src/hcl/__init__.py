"""Hierarchy-constrained losses with class-based curriculum selection.

The package turns a per-class base loss into one that respects a class
hierarchy (deeper predictions can never score a smaller loss than shallower
ones), selects which classes to train on by solving a small min-max
objective exactly, and wraps both in a from-scratch multi-label MLP with
hierarchy-aware evaluation metrics.

Each name is imported from its module (``from hcl import curriculum``,
``hcl.taxonomy.VIRTUAL_ROOT``); the package root re-exports none of them.
Importing the package by itself only fixes glibc's mmap threshold (see
``hcl._malloc``).
"""

from ._malloc import fix_mmap_threshold

__version__ = "0.1.0"


fix_mmap_threshold()
