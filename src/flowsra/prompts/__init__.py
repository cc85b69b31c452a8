"""Versioned prompt templates, loaded as package data, and the one table of
what each prompt kind sends, from which ``gateway.prompt_request`` builds
every request: ``ANCHORS``, keyed by kind value (``gateway.PromptKind``,
re-asks aside), gives the anchor of template ``<value>.txt``, the reply
budget (``max_tokens``) and the system message, if any. A template's
per-request text starts at its anchor. The head before it is formatted once
per chart (or is a constant, for the router and the judge) and sent as the
``ChatMessage.head``.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

PREAMBLE = "You are a careful assistant for flowchart question answering."

# kind value: (template anchor, reply budget in tokens, system message or None)
ANCHORS = {"router": ("Question:", 64, None), "relation": ("Node A (source):", 512, None),
           "shallow": ("Question:", 256, PREAMBLE), "deep": ("Question:", 256, PREAMBLE),
           "judge": ("Gold answer:", 64, None)}


def load_template(name: str) -> str:
    """Read a template by file name (e.g. ``relation.txt``)."""
    return resources.files(__name__).joinpath(name).read_text(encoding="utf-8")


# package data does not change while the process runs, so each file is read once
@lru_cache(maxsize=None)
def split_template(kind: str) -> tuple[str, str]:
    """Template ``<kind>.txt`` as its head and the rest, split before its anchor."""
    head, anchor, rest = load_template(f"{kind}.txt").partition(ANCHORS[kind][0])
    return head, anchor + rest
