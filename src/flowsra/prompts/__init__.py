"""Versioned prompt templates, loaded as package data."""

from __future__ import annotations

from importlib import resources

# package data does not change while the process runs, so each file is read once
_TEXTS: dict[str, str] = {}


def load_template(name: str) -> str:
    """Read a template by file name (e.g. ``relation.txt``)."""
    text = _TEXTS.get(name)
    if text is None:
        text = resources.files(__name__).joinpath(name).read_text(encoding="utf-8")
        _TEXTS[name] = text
    return text
