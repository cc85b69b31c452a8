"""Parsers for the three flowchart dialects.

Each parser accepts the grammar subset documented in ``docs/grammars.md``,
recovers from errors by emitting diagnostics and continuing, and returns a
(possibly partial) :class:`~flowsra.ir.FlowGraph`. Input outside the subset
produces diagnostics, never undefined behavior.

Each parser makes one pass over its input. Mermaid and PlantUML go line by
line; a Mermaid node reference, shape included, is one ``match``, and so is
an arrow. DOT lexes the whole text with one ``findall`` and parses the token
list by index. A DOT diagnostic's line is computed on demand: token offsets
are found by a second scan, made only when some diagnostic needs a line.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import cached_property

from .ir import (
    Edge,
    EdgeLabel,
    FlowGraph,
    IdentityEnum,
    Node,
    NodeKind,
    UNLABELED,
    YES,
    NO,
    edge_key,
    store_violations,
)

# kinds read per node, bound once: a read off NodeKind goes through its
# metaclass's __getattr__
_START, _END, _PROCESS, _DECISION = (
    NodeKind.START, NodeKind.END, NodeKind.PROCESS, NodeKind.DECISION)


class Dialect(IdentityEnum):
    MERMAID = "mermaid"
    DOT = "dot"
    PLANTUML = "plantuml"


class Severity(IdentityEnum):
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    message: str
    severity: Severity = Severity.ERROR

    def __str__(self) -> str:
        return f"line {self.line}: {self.severity.value}: {self.message}"


@dataclass
class ParseResult:
    """A (possibly partial) graph plus whatever went wrong while building it."""

    graph: FlowGraph
    diagnostics: list[ParseDiagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)

    def errors(self) -> list[ParseDiagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]


class UnknownDialectError(ValueError):
    """No dialect marker found in the input text."""


# blanks and the comments of all three grammars: Mermaid ``%%``, PlantUML
# ``'``, DOT ``//``, ``#`` and ``/* ... */`` (an unclosed one runs to the end)
_LEADING_COMMENTS = re.compile(r"(?:\s+|(?:%%|'|//|#)[^\n]*|/\*.*?(?:\*/|\Z))*", re.DOTALL)


def detect_dialect(text: str) -> Dialect:
    """Pick the dialect from the first significant token, after any leading
    blanks and comments.

    ``flowchart``/``graph`` open Mermaid, ``digraph`` (or ``graph`` followed
    by ``{`` on the same line, or either after ``strict``) opens DOT, and
    ``@startuml`` opens PlantUML.
    """
    if not text.strip():
        raise UnknownDialectError("empty input")
    start = _LEADING_COMMENTS.match(text).end()
    end = text.find("\n", start)
    # up to the first line break, as str.splitlines breaks lines
    line = next(iter(text[start:end if end >= 0 else None].splitlines()), "")
    first = re.match(r"[@\w]+", line)
    token = first.group(0).casefold() if first else ""
    if token == "@startuml":
        return Dialect.PLANTUML
    if token == "flowchart":
        return Dialect.MERMAID
    if token == "digraph":
        return Dialect.DOT
    if token == "graph":
        rest = line[first.end():]
        if "{" in rest:
            return Dialect.DOT
        return Dialect.MERMAID
    if token == "strict" and re.match(r"\s+(?:di)?graph\b", line[first.end():],
                                      re.IGNORECASE):
        return Dialect.DOT
    raise UnknownDialectError("no dialect marker found (expected flowchart/graph, digraph, or @startuml)")


class _Builder:
    """Mutable accumulator used by the parsers. Nodes keep the order in which
    ``kinds`` and ``texts`` first saw them; a redeclaration keeps it. Ids are
    unique keys and parsers declare an edge's endpoints before the edge, so a
    graph with no duplicate edge and no empty non-terminal text is clean: it
    arrives with its empty :func:`~flowsra.ir.validate` result stored."""

    def __init__(self) -> None:
        self.kinds: dict[str, NodeKind] = {}
        self.texts: dict[str, str] = {}
        self._edges: list[Edge] = []
        self._edge_keys: set[tuple[str, str, str, str | None]] = set()
        self._starts: set[str] = set()  # ids whose kind is START
        self.title: str | None = None

    def ensure(self, node_id: str) -> None:
        """Declare ``node_id``, if new, as a Process node named after it."""
        if node_id not in self.kinds:
            self.kinds[node_id] = _PROCESS
            self.texts[node_id] = node_id

    def define(self, node_id: str, kind: NodeKind, text: str) -> str:
        """Declare or redeclare a node's shape and text (order position kept)."""
        self.kinds[node_id] = kind
        self.texts[node_id] = text
        if kind is _START:
            self._starts.add(node_id)
        else:
            self._starts.discard(node_id)
        return node_id

    def add_node(self, kind: NodeKind, text: str) -> str:
        """A new node with a synthesized id; only for parsers that name every
        node this way, so ``n<count>`` is fresh."""
        return self.define(f"n{len(self.kinds)}", kind, text)

    def terminal_kind(self, node_id: str) -> NodeKind:
        """The kind of a terminal by position: one that is already Start or
        End keeps it; otherwise End if the chart has a Start, else Start."""
        kind = self.kinds.get(node_id)
        if kind is _START or kind is _END:
            return kind
        return _END if self._starts else _START

    def add_edge(self, src: str, dst: str, label: EdgeLabel = UNLABELED) -> bool:
        """Record an edge between declared nodes; returns False for a
        duplicate (kept, so validate() flags it too, but the parser should
        diagnose it where it happened)."""
        seen = len(self._edge_keys)
        self._edge_keys.add(edge_key(src, dst, label))
        self._edges.append(Edge(src, dst, label))
        return len(self._edge_keys) != seen

    def build(self) -> FlowGraph:
        kinds, texts = self.kinds, self.texts
        # both dicts gain each key in the same call, so they hold one order
        nodes = tuple(map(Node, kinds, kinds.values(), texts.values()))
        graph = FlowGraph(nodes=nodes, edges=tuple(self._edges), title=self.title)
        if len(self._edge_keys) == len(self._edges) and (
                "" not in texts.values()
                or all(n.kind.is_terminal for n in nodes if not n.text)):
            store_violations(graph)
        return graph


def _strip_quotes(text: str) -> str:
    text = text.strip()
    if len(text) >= 2 and text.startswith('"') and text.endswith('"'):
        return text[1:-1].replace("#quot;", '"')
    return text


_START_CUES = re.compile(r"\b(start|begin)\b", re.IGNORECASE)
_END_CUES = re.compile(r"\b(end|stop|finish|finished|done|complete|completed)\b", re.IGNORECASE)


def _terminal_kind(text: str, builder: _Builder, node_id: str) -> NodeKind:
    """Classify a terminal-shaped node as Start or End by text cues, then position."""
    if _START_CUES.search(text):
        return _START
    if _END_CUES.search(text):
        return _END
    return builder.terminal_kind(node_id)


# --- Mermaid ---------------------------------------------------------------

_MERMAID_HEADER = re.compile(r"^(flowchart|graph)\b\s*(TD|TB|BT|LR|RL)?\s*$", re.IGNORECASE)

# Shapes, most specific first, and the kind each gives (None: a terminal,
# Start or End by ``_terminal_kind``). Each has a quoted-content variant, first,
# so delimiter characters may appear inside quoted text; the ``#quot;`` escape
# of a '"' holds none, so ``[^"]*`` reads it as part of the text.
_MERMAID_SHAPES: list[tuple[str, NodeKind | None]] = [
    (r'\(\("([^"]*)"\)\)', None),
    (r"\(\(([^)]*)\)\)", None),
    (r'\(\["([^"]*)"\]\)', None),
    (r"\(\[(.*?)\]\)", None),
    (r'\[/"([^"]*)"/\]', NodeKind.INPUT_OUTPUT),
    (r"\[/(.*?)/\]", NodeKind.INPUT_OUTPUT),
    (r'\{"([^"]*)"\}', NodeKind.DECISION),
    (r"\{([^}]*)\}", NodeKind.DECISION),
    (r'\["([^"]*)"\]', NodeKind.PROCESS),
    (r"\[([^]]*)\]", NodeKind.PROCESS),
]

# A node id; the Mermaid emitter writes no other.
MERMAID_ID = r"[A-Za-z_][A-Za-z0-9_]*"

# A node reference: the id (group 1), then at most one shape, tried in the
# order above (group k + 2 holds the text of shape k), so ``lastindex`` names
# the shape and one ``match`` reads the whole reference.
_MERMAID_NODE = re.compile(
    "(" + MERMAID_ID + ")(?:" + "|".join(pattern for pattern, _ in _MERMAID_SHAPES) + ")?")
_MERMAID_KIND_OF_GROUP = [None, None] + [kind for _, kind in _MERMAID_SHAPES]

# The inline form ``-- label -->`` (the label is its group). The label
# starts after the whitespace that follows ``--``, or at the last character
# of that whitespace when a '-' or '>' comes next; it runs to the first '-',
# without its trailing whitespace unless that is all of it. Each of those
# positions can be found in only one way, so a label that no '-->' closes is
# rejected in time linear in its length.
_MERMAID_INLINE_ARROW = (
    r"--(?:\s*(?=[^\s>-])|\s*(?=\s[>-]))([^>-](?:[^-]*[^\s-])?)\s*-->")

# An arrow with the whitespace around it: -->|label| (group 1),
# -- label --> (group 2) or a bare -->.
_MERMAID_ARROW = re.compile(
    r"\s*(?:-->\s*\|([^|]*)\||" + _MERMAID_INLINE_ARROW + r"|-->)\s*")


# what a comment cannot start inside: quoted text and an arrow's label
_MERMAID_COMMENT = re.compile(
    r'"[^"]*"|-->\s*\|[^|]*\||' + _MERMAID_INLINE_ARROW + "|%%")


def _strip_mermaid_comments(line: str) -> str:
    """``line`` up to its first ``%%`` outside quoted text and arrow
    labels (``-->|label|`` and ``-- label -->``)."""
    if "%%" not in line:
        return line
    for m in _MERMAID_COMMENT.finditer(line):
        if m.group() == "%%":
            return line[:m.start()]
    return line


def _mermaid_node_ref(builder: _Builder, line: str, pos: int, lineno: int,
                      diagnostics: list[ParseDiagnostic]) -> tuple[str, int] | None:
    """Consume one node reference (id plus optional shape) at ``pos``."""
    m = _MERMAID_NODE.match(line, pos)
    if not m:
        return None
    node_id = m.group(1)
    group = m.lastindex
    if group == 1:
        builder.ensure(node_id)
        return node_id, m.end()
    raw = m.group(group)
    # a quoted shape's group, an even one, holds the text inside its quotes
    text = raw.strip().replace("#quot;", '"') if group % 2 == 0 else _strip_quotes(raw)
    kind = _MERMAID_KIND_OF_GROUP[group]
    if kind is None:
        kind = _terminal_kind(text, builder, node_id)
    elif not text:
        diagnostics.append(ParseDiagnostic(
            lineno, f"{kind.value} node {node_id!r} has empty text",
            Severity.ERROR))
    builder.define(node_id, kind, text)
    return node_id, m.end()


def parse_mermaid(text: str) -> ParseResult:
    """Parse the Mermaid flowchart subset.

    Malformed lines produce Error diagnostics and are skipped; the graph
    built so far is kept.
    """
    builder = _Builder()
    diagnostics: list[ParseDiagnostic] = []
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_mermaid_comments(raw).strip()
        if not line:
            continue
        if not header_seen:
            if _MERMAID_HEADER.match(line):
                header_seen = True
                continue
            diagnostics.append(ParseDiagnostic(
                lineno, "expected 'flowchart <dir>' header", Severity.ERROR))
            header_seen = True  # recover: treat remaining lines as body
        ref = _mermaid_node_ref(builder, line, 0, lineno, diagnostics)
        if ref is None:
            diagnostics.append(ParseDiagnostic(
                lineno, f"cannot parse statement: {line!r}", Severity.ERROR))
            continue
        node_id, pos = ref
        while pos < len(line):
            am = _MERMAID_ARROW.match(line, pos)
            if not am:
                diagnostics.append(ParseDiagnostic(
                    lineno, f"unbalanced bracket or unexpected text: {line[pos:].lstrip()!r}",
                    Severity.ERROR))
                break
            group = am.lastindex
            label = EdgeLabel.from_text(am.group(group)) if group else UNLABELED
            ref = _mermaid_node_ref(builder, line, am.end(), lineno, diagnostics)
            if ref is None:
                diagnostics.append(ParseDiagnostic(
                    lineno, "arrow without a target node", Severity.ERROR))
                break
            target_id, pos = ref
            if not builder.add_edge(node_id, target_id, label):
                diagnostics.append(ParseDiagnostic(
                    lineno, f"duplicate edge {node_id} --> {target_id}",
                    Severity.ERROR))
            node_id = target_id
    return ParseResult(builder.build(), diagnostics)


# --- DOT -------------------------------------------------------------------

# One match per token: the whitespace and comments before a token are its
# prefix, never matches of their own. Group 1 is the token: a string, an
# arrow, punctuation, a name, an unterminated block comment (running to the
# end of the text), any other single character (which the lexer reports), or
# the empty end of the text after the last prefix. The prefix repeats only
# over comments, each with the blanks after it: most tokens follow a blank
# or nothing, and a group repeated per blank run costs more per token. Since
# group 1 matches at every position, the matches tile the whole text, and an
# unterminated comment ends the scan, so no later '/*' searches for a '*/'
# again.
_DOT_TOKEN = re.compile(
    r"""
    \s*(?:(?://[^\n]*|\#[^\n]*|/\*.*?\*/)\s*)*
    ("[^"\\]*(?:\\.[^"\\]*)*"|->|--|[{}\[\]=;,]|[A-Za-z_][A-Za-z0-9_]*|-?\d+(?:\.\d+)?|/\*.*|.|\Z)
    """,
    re.VERBOSE | re.DOTALL,
)
# tokens that are not a node id, an attribute name or a value
_DOT_NOT_ID = frozenset(("{", "}", "[", "]", "=", ";", ",", "->", "--", ""))
# the one-character tokens the grammar has besides a digit; any other is an
# unexpected character
_DOT_ONE_CHAR = frozenset("{}[]=;,_" + string.ascii_letters)

_DOT_SHAPE_KINDS = {
    "box": NodeKind.PROCESS,
    "rect": NodeKind.PROCESS,
    "rectangle": NodeKind.PROCESS,
    "diamond": NodeKind.DECISION,
    "parallelogram": NodeKind.INPUT_OUTPUT,
}
_DOT_TERMINAL_SHAPES = {"oval", "ellipse", "circle"}


class _DotTokens:
    """The tokens of one DOT text, without whitespace, comments and unexpected
    characters, ending in at least one empty end token.

    Lines are found by a second scan, made only when a diagnostic asks for one.
    """

    def __init__(self, text: str) -> None:
        self.text = text
        values = _DOT_TOKEN.findall(text)
        # an unterminated comment can only be the last token before the end
        self.unterminated = len(values) > 1 and values[-2][:2] == "/*"
        if self.unterminated:
            del values[-2]
        # a one-digit number may be any Unicode decimal digit, as ``\d`` reads it
        self.unexpected = {v for v in set(values)
                           if len(v) == 1 and not v.isdecimal()} - _DOT_ONE_CHAR
        if self.unexpected:
            values = [v for v in values if v not in self.unexpected]
        self.values = values

    @cached_property
    def _located(self) -> tuple[list[int], list[ParseDiagnostic]]:
        lines: list[int] = []
        diagnostics: list[ParseDiagnostic] = []
        text = self.text
        line = 1
        pos = 0
        for m in _DOT_TOKEN.finditer(text):
            start = m.start(1)
            line += text.count("\n", pos, start)
            pos = start
            value = m.group(1)
            if value in self.unexpected:
                diagnostics.append(ParseDiagnostic(
                    line, f"unexpected character {value!r}", Severity.ERROR))
            elif value[:2] == "/*":
                diagnostics.append(ParseDiagnostic(
                    line, "unterminated comment", Severity.ERROR))
            else:
                lines.append(line)
        return lines, diagnostics

    def line(self, index: int) -> int:
        """The line the token at ``index`` starts on."""
        return self._located[0][index]

    def lexer_diagnostics(self) -> list[ParseDiagnostic]:
        """One Error per unexpected character and one for an unterminated
        comment, in text order."""
        return self._located[1] if self.unexpected or self.unterminated else []


def _dot_unquote(value: str) -> str:
    """The text of a string token; a name token is its own text, so callers
    test ``value[0] == '"'`` first."""
    return value[1:-1].replace('\\"', '"').replace("\\\\", "\\")


def _dot_attrs(tokens: _DotTokens, i: int, last_line: int,
               diagnostics: list[ParseDiagnostic]) -> tuple[dict[str, str], int]:
    """The attribute lists from token ``i`` on (none unless it is '['), and
    the index after them."""
    t = tokens.values
    attrs: dict[str, str] = {}
    while t[i] == "[":
        i += 1
        while True:
            name = t[i]
            if name in _DOT_NOT_ID:
                if name == "]":
                    i += 1
                    break
                if not name:
                    diagnostics.append(ParseDiagnostic(last_line, "unterminated attribute list"))
                    return attrs, i
                diagnostics.append(ParseDiagnostic(
                    tokens.line(i), f"unexpected token {name!r} in attribute list"))
                i += 1
                continue
            if name[0] == '"':
                name = _dot_unquote(name)
            i += 1
            if t[i] == "=":
                value = t[i + 1]
                if value in _DOT_NOT_ID:
                    # take no token: a ']' or ',' here still ends or goes on with the list
                    diagnostics.append(ParseDiagnostic(
                        tokens.line(i - 1), f"attribute {name!r} has no value"))
                    i += 1
                else:
                    attrs[name] = _dot_unquote(value) if value[0] == '"' else value
                    i += 2
            if t[i] == ",":
                i += 1
    return attrs, i


def parse_dot(text: str) -> ParseResult:
    """Parse the Graphviz DOT subset (directed graphs, shape/label attributes)."""
    tokens = _DotTokens(text)
    t = tokens.values
    last_line = text.count("\n") + 1
    builder = _Builder()
    kinds, texts = builder.kinds, builder.texts
    diagnostics: list[ParseDiagnostic] = []
    i = 0
    if t[i] == "strict":
        i += 1
    if t[i] == "digraph" or t[i] == "graph":
        i += 1
    else:
        diagnostics.append(ParseDiagnostic(
            tokens.line(i) if t[i] else 1, "expected 'digraph' or 'graph'"))
    if t[i] not in _DOT_NOT_ID:
        i += 1  # graph id
    if t[i] == "{":
        i += 1
    else:
        diagnostics.append(ParseDiagnostic(
            tokens.line(i) if t[i] else last_line, "expected '{'"))
    closed = False
    while True:  # one statement per pass
        value = t[i]
        stmt = i
        i += 1
        if value in _DOT_NOT_ID:
            if value == "}":
                closed = True
                break
            if not value:  # the end
                break
            if value != ";":
                diagnostics.append(ParseDiagnostic(
                    tokens.line(stmt), f"unexpected token {value!r}"))
            continue
        after = t[i]
        if after == "[" and (value == "node" or value == "edge" or value == "graph"):
            i = _dot_attrs(tokens, i, last_line, diagnostics)[1]
            diagnostics.append(ParseDiagnostic(
                tokens.line(stmt), f"default {value!r} attributes are ignored",
                Severity.WARNING))
            if t[i] == ";":
                i += 1
            continue
        first_id = _dot_unquote(value) if value[0] == '"' else value
        if after == "=":
            i += 1
            if t[i] in _DOT_NOT_ID:  # take no token: a '}' here still closes the graph
                diagnostics.append(ParseDiagnostic(
                    tokens.line(stmt), f"attribute {first_id!r} has no value"))
            else:
                i += 1  # the value
                diagnostics.append(ParseDiagnostic(
                    tokens.line(stmt), f"graph attribute {first_id!r} is ignored",
                    Severity.WARNING))
            if t[i] == ";":
                i += 1
            continue
        if after != "->" and after != "--":  # a node statement
            attrs: dict[str, str] = {}
            if after == "[":
                attrs, i = _dot_attrs(tokens, i, last_line, diagnostics)
            if t[i] == ";":
                i += 1
            shape = attrs.get("shape", "").casefold()
            text = attrs.get("label", texts.get(first_id, first_id))
            if shape in _DOT_TERMINAL_SHAPES:
                kind = builder.terminal_kind(first_id)
            elif shape in _DOT_SHAPE_KINDS:
                kind = _DOT_SHAPE_KINDS[shape]
            elif shape:
                diagnostics.append(ParseDiagnostic(
                    tokens.line(stmt), f"unsupported shape {shape!r} treated as box",
                    Severity.WARNING))
                kind = _PROCESS
            else:
                kind = kinds.get(first_id, _PROCESS)
            if not text and not kind.is_terminal:
                diagnostics.append(ParseDiagnostic(
                    tokens.line(stmt), f"{kind.value} node {first_id!r} has empty label"))
            builder.define(first_id, kind, text)
            continue
        endpoints = [first_id]
        while t[i] == "->" or t[i] == "--":
            target = t[i + 1]
            if target in _DOT_NOT_ID:
                diagnostics.append(ParseDiagnostic(
                    tokens.line(i), "edge arrow without a target node"))
                i += 2 if target else 1
                break
            endpoints.append(_dot_unquote(target) if target[0] == '"' else target)
            i += 2
        else:  # the statement goes on unless an arrow had no target
            label = UNLABELED
            if t[i] == "[":
                attrs, i = _dot_attrs(tokens, i, last_line, diagnostics)
                if "label" in attrs:
                    label = EdgeLabel.from_text(attrs["label"])
            if t[i] == ";":
                i += 1
            for node_id in endpoints:
                if node_id not in kinds:
                    builder.ensure(node_id)
                    if not node_id:  # its text is its empty id
                        diagnostics.append(ParseDiagnostic(
                            tokens.line(stmt), "Process node '' has empty label"))
            for src, dst in zip(endpoints, endpoints[1:]):
                if not builder.add_edge(src, dst, label):
                    diagnostics.append(ParseDiagnostic(
                        tokens.line(stmt), f"duplicate edge {src} -> {dst}"))
    if not closed:
        diagnostics.append(ParseDiagnostic(last_line, "missing closing '}'"))
    elif t[i]:
        diagnostics.append(ParseDiagnostic(
            tokens.line(i), "unexpected text after closing '}'"))
    diagnostics[:0] = tokens.lexer_diagnostics()
    return ParseResult(builder.build(), diagnostics)


# --- PlantUML --------------------------------------------------------------

_PU_ACTION = re.compile(r"^:(.*);$")
_PU_ARROW_LABEL = re.compile(r"^->\s*(.*?);?$")
_PU_ELSE = re.compile(r"^else(?:\s*\((?P<label>.*)\))?$")
_PU_TITLE = re.compile(r"^title\s+(.*)$")
_PU_IF_HEAD = re.compile(r"if\s*\(")
_PU_THEN = re.compile(r"\)\s*then(\s*\()?")
_PU_REPEAT_WHILE_HEAD = re.compile(r"repeat\s+while\s*\(")
_PU_IS = re.compile(r"\)\s+is\s*\(")
_PU_NOT = re.compile(r"\)\s+not\s*\(")


def _pu_if(stmt: str) -> tuple[str, str | None] | None:
    """``if (cond) then [(label)]`` as (cond, label), or None. cond closes at
    the last ``) then`` with nothing or ``(label)`` after it; label closes at
    the line's end. The ``) then`` are found in one pass, and each costs the
    whitespace after it, so the split takes linear time."""
    head = _PU_IF_HEAD.match(stmt)
    if head is None:
        return None
    for then in reversed(list(_PU_THEN.finditer(stmt, head.end()))):
        if then.group(1) is None:
            if then.end() == len(stmt):
                return stmt[head.end():then.start()], None
        elif stmt.endswith(")"):  # the label's ``)``, which its ``(`` cannot be
            return stmt[head.end():then.start()], stmt[then.end():-1]
    return None


def _pu_repeat_while(stmt: str) -> tuple[str, str | None, str | None] | None:
    """``repeat while (cond) [is (back)] [not (exit)]`` as (cond, back, exit),
    or None. The first ``) not (`` ends the condition part and opens exit,
    which closes at the line's end; without one, the condition part closes
    there. In it, cond closes at the first ``) is (``, which opens back. Each
    part is one regex search, so the split takes linear time."""
    head = _PU_REPEAT_WHILE_HEAD.match(stmt)
    if head is None or not stmt.endswith(")"):
        return None
    opens_exit = _PU_NOT.search(stmt, head.end())
    if opens_exit is None:
        end, exit_text = len(stmt) - 1, None
    else:
        end, exit_text = opens_exit.start(), stmt[opens_exit.end():-1]
    opens_back = _PU_IS.search(stmt, head.end(), end)
    if opens_back is None:
        return stmt[head.end():end], None, exit_text
    return stmt[head.end():opens_back.start()], stmt[opens_back.end():end], exit_text


def _pu_label(raw: str | None, default: EdgeLabel) -> EdgeLabel:
    """then/else/is/not parenthesized labels; absent parens take the default,
    empty parens mean explicitly unlabeled."""
    if raw is None:
        return default
    if not raw.strip():
        return UNLABELED
    return EdgeLabel.from_text(raw)


@dataclass
class _PuFrame:
    kind: str  # "if" | "repeat"
    line: int
    decision: str | None = None
    done_tips: list[tuple[str, EdgeLabel]] = field(default_factory=list)
    saw_else: bool = False
    head: str | None = None  # repeat: first node of the body


class _PlantUmlParser:
    def __init__(self) -> None:
        self.builder = _Builder()
        self.diagnostics: list[ParseDiagnostic] = []
        self.tips: list[tuple[str, EdgeLabel]] = []
        self.frames: list[_PuFrame] = []
        # the repeat frames whose body has no node yet
        self.unheaded: list[_PuFrame] = []

    def error(self, line: int, message: str) -> None:
        self.diagnostics.append(ParseDiagnostic(line, message, Severity.ERROR))

    def attach(self, node_id: str, line: int = 0) -> None:
        """Connect all dangling outlets to a newly created node."""
        for tip_id, label in self.tips:
            if not self.builder.add_edge(tip_id, node_id, label):
                self.error(line or 1, f"duplicate edge {tip_id} -> {node_id}")
        self.tips = [(node_id, UNLABELED)]
        # every still-unheaded repeat frame starts its body here (nested
        # repeats with no statement between them share one head); a frame
        # that 'repeat while' has just closed takes the loop decision, as
        # it would as its own head
        if self.unheaded:
            for frame in self.unheaded:
                frame.head = node_id
            self.unheaded = []

    def statement(self, line: int, stmt: str) -> None:
        if stmt == "start":
            self.attach(self.builder.add_node(_START, ""), line)
            return
        if stmt == "stop" or stmt == "end":
            self.attach(self.builder.add_node(_END, ""), line)
            self.tips = []
            return
        m = _PU_ACTION.match(stmt)
        if m:
            text = m.group(1).strip()
            if not text:
                self.error(line, "action with empty text")
            self.attach(self.builder.add_node(_PROCESS, text), line)
            return
        m = _PU_TITLE.match(stmt)
        if m:
            self.builder.title = m.group(1).strip()
            return
        if_parts = _pu_if(stmt)
        if if_parts:
            cond = if_parts[0].strip()
            if not cond:
                self.error(line, "decision with empty condition")
            decision = self.builder.add_node(_DECISION, cond)
            self.attach(decision, line)
            self.frames.append(_PuFrame("if", line, decision=decision))
            self.tips = [(decision, _pu_label(if_parts[1], YES))]
            return
        m = _PU_ELSE.match(stmt)
        if m:
            frame = self.frames[-1] if self.frames and self.frames[-1].kind == "if" else None
            if frame is None:
                self.error(line, "'else' without a matching 'if'")
                return
            if frame.saw_else:
                self.error(line, "duplicate 'else' in one 'if' block")
                return
            frame.saw_else = True
            frame.done_tips.extend(self.tips)
            self.tips = [(frame.decision, _pu_label(m.group("label"), NO))]
            return
        if stmt == "endif":
            frame = self.frames.pop() if self.frames and self.frames[-1].kind == "if" else None
            if frame is None:
                self.error(line, "'endif' without a matching 'if'")
                return
            tips = frame.done_tips + self.tips
            if not frame.saw_else:
                tips.append((frame.decision, NO))
            self.tips = tips
            return
        if stmt == "repeat":
            frame = _PuFrame("repeat", line)
            self.frames.append(frame)
            self.unheaded.append(frame)
            return
        loop_parts = _pu_repeat_while(stmt)
        if loop_parts:
            frame = self.frames.pop() if self.frames and self.frames[-1].kind == "repeat" else None
            if frame is None:
                self.error(line, "'repeat while' without a matching 'repeat'")
                return
            cond, back, exit_label = loop_parts
            cond = cond.strip()
            if not cond:
                self.error(line, "loop decision with empty condition")
            decision = self.builder.add_node(_DECISION, cond)
            self.attach(decision, line)
            head = frame.head or decision
            self.builder.add_edge(decision, head, _pu_label(back, YES))
            self.tips = [(decision, _pu_label(exit_label, NO))]
            return
        m = _PU_ARROW_LABEL.match(stmt)
        if m:
            # relabel the open flows now, so the label stays in its branch
            label = EdgeLabel.from_text(m.group(1))
            self.tips = [(tip_id, label) for tip_id, _ in self.tips]
            return
        self.error(line, f"statement outside the supported subset: {stmt!r}")

    def finish(self) -> None:
        for frame in self.frames:
            self.error(frame.line, f"unmatched '{frame.kind}' (still open at end of input)")


def parse_plantuml(text: str) -> ParseResult:
    """Parse the PlantUML activity subset (start/stop, actions, if/else, repeat)."""
    parser = _PlantUmlParser()
    in_body = False
    saw_start_marker = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("'"):
            continue
        if line.casefold() == "@startuml":
            in_body = True
            saw_start_marker = True
            continue
        if line.casefold() == "@enduml":
            in_body = False
            continue
        if not in_body:
            parser.error(lineno, f"statement outside @startuml/@enduml: {line!r}")
            continue
        parser.statement(lineno, line)
    if not saw_start_marker:
        parser.error(1, "missing @startuml marker")
    parser.finish()
    return ParseResult(parser.builder.build(), parser.diagnostics)


# --- dispatch ---------------------------------------------------------------

_PARSERS = {
    Dialect.MERMAID: parse_mermaid,
    Dialect.DOT: parse_dot,
    Dialect.PLANTUML: parse_plantuml,
}


def parse_text(text: str, dialect: Dialect | None = None) -> tuple[Dialect, ParseResult]:
    """Parse ``text``, auto-detecting the dialect unless one is given."""
    if dialect is None:
        dialect = detect_dialect(text)
    return dialect, _PARSERS[dialect](text)
