"""Versioned prompt templates, loaded as package data.

Each template's per-request text starts at its anchor (``ANCHORS``):
``Question:`` for the router, shallow and deep, ``Node A (source):`` for
relation and ``Gold answer:`` for the judge. The head before it is formatted
once per chart (or is a constant, for the router and the judge) and sent as
the ``ChatMessage.head``.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

ANCHORS = {"router.txt": "Question:", "shallow.txt": "Question:", "deep.txt": "Question:",
           "relation.txt": "Node A (source):", "judge.txt": "Gold answer:"}


def load_template(name: str) -> str:
    """Read a template by file name (e.g. ``relation.txt``)."""
    return resources.files(__name__).joinpath(name).read_text(encoding="utf-8")


# package data does not change while the process runs, so each file is read once
@lru_cache(maxsize=None)
def split_template(name: str) -> tuple[str, str]:
    """A template as its head and the rest, split before its anchor."""
    head, anchor, rest = load_template(name).partition(ANCHORS[name])
    return head, anchor + rest
