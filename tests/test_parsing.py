"""Dialect detection and the three parsers, including error recovery."""

import random
import re
import time
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from flowsra.emitting import emit
from flowsra.ir import NO, UNLABELED, YES, EdgeLabel, FlowGraph, LabelKind, NodeKind, validate
from flowsra.parsing import (
    _DOT_SHAPE_KINDS,
    _DOT_TERMINAL_SHAPES,
    _DOT_TOKEN,
    _MERMAID_ARROW,
    _MERMAID_HEADER,
    _MERMAID_NODE,
    Dialect,
    ParseDiagnostic,
    ParseResult,
    Severity,
    UnknownDialectError,
    _Builder,
    _strip_mermaid_comments,
    _pu_if,
    _pu_repeat_while,
    _strip_quotes,
    _terminal_kind,
    detect_dialect,
    parse_dot,
    parse_mermaid,
    parse_plantuml,
    parse_text,
)

from gen import rand_flow_graph, rand_structured_graph


class TestDetectDialect:
    def test_mermaid_markers(self):
        assert detect_dialect("flowchart TD\nA-->B") is Dialect.MERMAID
        assert detect_dialect("graph LR\nA-->B") is Dialect.MERMAID
        assert detect_dialect("%% note\nflowchart TD\nA-->B") is Dialect.MERMAID
        assert detect_dialect("  %%{init: {}}%%\n%% b\ngraph LR") is Dialect.MERMAID

    def test_dot_markers(self):
        assert detect_dialect("digraph G { A -> B }") is Dialect.DOT
        assert detect_dialect("graph { a -- b }") is Dialect.DOT
        assert detect_dialect("graph G { a }") is Dialect.DOT
        assert detect_dialect("// note\ndigraph G {\nA -> B\n}") is Dialect.DOT
        assert detect_dialect("# one\n/* two\n three */ graph G { a }") is Dialect.DOT
        assert detect_dialect("strict digraph G {\nA -> B\n}") is Dialect.DOT
        assert detect_dialect("STRICT graph\n{ a -- b }") is Dialect.DOT

    def test_plantuml_marker(self):
        assert detect_dialect("@startuml\nstart\n@enduml") is Dialect.PLANTUML
        assert detect_dialect("' note\n@startuml\nstart\n@enduml") is Dialect.PLANTUML

    def test_unknown(self):
        with pytest.raises(UnknownDialectError):
            detect_dialect("hello world")
        with pytest.raises(UnknownDialectError):
            detect_dialect("   \n\n  ")
        for text in ("%% only a comment\n", "/* unclosed\ndigraph G {}", "strict G {}"):
            with pytest.raises(UnknownDialectError, match="no dialect marker"):
                detect_dialect(text)

    def test_leading_blank_lines_are_skipped(self):
        assert detect_dialect("\n\n  flowchart TD\n") is Dialect.MERMAID


class TestParseMermaid:
    def test_three_node_chart(self):
        # tokens enumerated by hand for the snippet
        result = parse_mermaid("flowchart TD\nA([Start])-->B{Done?}\nB-->|Yes|C([End])")
        assert result.ok
        graph = result.graph
        assert [(n.id, n.kind, n.text) for n in graph.nodes] == [
            ("A", NodeKind.START, "Start"),
            ("B", NodeKind.DECISION, "Done?"),
            ("C", NodeKind.END, "End"),
        ]
        assert len(graph.edges) == 2
        assert graph.edges[1].label == YES
        assert graph.edges[0].label == UNLABELED

    def test_header_only_is_empty_graph(self):
        result = parse_mermaid("flowchart TD")
        assert result.ok
        assert result.graph.nodes == () and result.graph.edges == ()

    def test_dangling_arrow_keeps_partial_graph(self):
        result = parse_mermaid("flowchart TD\nA-->")
        assert [n.id for n in result.graph.nodes] == ["A"]
        errors = result.errors()
        assert len(errors) == 1
        assert errors[0].line == 2

    def test_unbalanced_bracket_is_an_error_with_line(self):
        result = parse_mermaid("flowchart TD\nA[unclosed")
        assert any(d.severity is Severity.ERROR and d.line == 2
                   for d in result.diagnostics)

    def test_label_forms_are_equivalent(self):
        pipe = parse_mermaid("flowchart TD\nA-->|Yes|B").graph
        inline = parse_mermaid("flowchart TD\nA--Yes-->B").graph
        assert pipe.edges[0].label == YES
        assert inline.edges[0].label == YES

    def test_edge_chain(self):
        graph = parse_mermaid("flowchart TD\nA --> B --> C").graph
        assert [(e.src, e.dst) for e in graph.edges] == [("A", "B"), ("B", "C")]

    def test_labeled_chain_with_inline_declarations(self):
        graph = parse_mermaid(
            "flowchart TD\nA{ok?} -->|Yes| B[go] -->|done| C([End])").graph
        assert [n.kind for n in graph.nodes] == [
            NodeKind.DECISION, NodeKind.PROCESS, NodeKind.END]
        assert [e.label for e in graph.edges] == [
            YES, EdgeLabel(LabelKind.OTHER, "done")]

    def test_comments_stripped(self):
        result = parse_mermaid("flowchart TD\n%% a comment\nA-->B %% trailing")
        assert result.ok
        assert len(result.graph.edges) == 1

    @pytest.mark.parametrize("line, kept", [
        ("A -- 50%% off --> B %% note", "A -- 50%% off --> B "),
        ("A -- x %% note", "A -- x "),  # no '-->' closes the label
        ("A --> B -- c %% d --> E %% f", "A --> B -- c %% d --> E "),
        ('A["50%%"] -->|100%%| B %% note', 'A["50%%"] -->|100%%| B '),
    ])
    def test_comments_start_outside_quotes_and_labels(self, line, kept):
        assert _strip_mermaid_comments(line) == kept

    def test_percent_signs_in_an_inline_label_are_text(self):
        result = parse_mermaid("flowchart TD\nA -- 50%% off --> B %% note")
        assert result.ok
        assert [(e.src, e.dst, e.label) for e in result.graph.edges] == [
            ("A", "B", EdgeLabel(LabelKind.OTHER, "50%% off"))]

    def test_io_shape(self):
        graph = parse_mermaid("flowchart TD\nA[/Read file/]").graph
        assert graph.nodes[0].kind is NodeKind.INPUT_OUTPUT
        assert graph.nodes[0].text == "Read file"

    @pytest.mark.parametrize("shaped, text", [
        ('A["say #quot;hi#quot;"]', 'say "hi"'),
        ('A{" #quot;x#quot; "}', '"x"'),
        ('A[ "a #quot;b" ]', 'a "b'),
        ('A[a #quot;b]', "a #quot;b"),
    ])
    def test_quot_escape_is_read_back_in_quoted_text(self, shaped, text):
        result = parse_mermaid(f"flowchart TD\n{shaped}")
        assert result.ok
        assert result.graph.nodes[0].text == text

    def test_quoted_text_with_delimiters(self):
        graph = parse_mermaid('flowchart TD\nA["a [b] c"]').graph
        assert graph.nodes[0].text == "a [b] c"

    @pytest.mark.parametrize("body,expected", [
        # C: a start already exists
        ("A([Begin])-->B([Finish])\nC((spare))", {"A": "Start", "B": "End", "C": "End"}),
        # an End by its text leaves the chart without a Start, so B is one
        ("A([Finish]) --> B((x))", {"A": "End", "B": "Start"}),
    ])
    def test_terminal_disambiguation_by_text_then_position(self, body, expected):
        graph = parse_mermaid("flowchart TD\n" + body).graph
        assert {n.id: n.kind.value for n in graph.nodes} == expected

    def test_bare_node_defaults_to_process_named_after_id(self):
        graph = parse_mermaid("flowchart TD\nA-->B").graph
        assert graph.nodes[0].kind is NodeKind.PROCESS
        assert graph.nodes[0].text == "A"

    def test_every_result_validates_or_reports_an_error(self):
        for text in ("flowchart TD\nA-->B", "flowchart TD\nA-->", "flowchart TD"):
            result = parse_mermaid(text)
            assert not validate(result.graph) or result.errors()

    def test_duplicate_edge_is_diagnosed_where_it_happens(self):
        result = parse_mermaid("flowchart TD\nA-->B\nA-->B")
        assert validate(result.graph)  # kept, not deduplicated
        assert any("duplicate edge" in d.message and d.line == 3
                   for d in result.errors())

    def test_empty_nonterminal_text_is_diagnosed(self):
        result = parse_mermaid("flowchart TD\nA[]")
        assert any("empty text" in d.message for d in result.errors())

    def test_edges_differing_only_in_label_are_not_duplicates(self):
        result = parse_mermaid(
            "flowchart TD\nA-->|Yes|B\nA-->|No|B\nA-->|x|B\nA-->|y|B\nA-->B")
        assert result.ok
        assert len(result.graph.edges) == 5
        assert validate(result.graph) == []


class TestParseDot:
    def test_two_nodes_one_edge(self):
        # hand enumeration of the statement list
        result = parse_dot(
            'digraph G { A [shape=oval,label="Start"]; B [shape=box,label="Work"]; A -> B; }')
        assert result.ok
        graph = result.graph
        assert [(n.id, n.kind, n.text) for n in graph.nodes] == [
            ("A", NodeKind.START, "Start"),
            ("B", NodeKind.PROCESS, "Work"),
        ]
        assert len(graph.edges) == 1
        assert graph.edges[0].label == UNLABELED

    def test_empty_graph(self):
        result = parse_dot("digraph G {}")
        assert result.ok
        assert result.graph.nodes == () and result.graph.edges == ()

    def test_unclosed_brace_reports_final_line(self):
        text = "digraph G {\n  A -> B;\n"
        result = parse_dot(text)
        errors = result.errors()
        assert errors and errors[-1].line == text.count("\n") + 1

    @pytest.mark.parametrize("body,expected", [
        ('A [shape=oval,label="x"]; B [shape=ellipse,label="y"]; C [shape=oval,label="z"];',
         {"A": "Start", "B": "End", "C": "End"}),
        # A keeps its Start when redeclared, then loses it to a box, so the
        # chart has no Start when C is declared
        ("A [shape=oval]; A [shape=oval]; B [shape=oval]; A [shape=box]; C [shape=oval];",
         {"A": "Process", "B": "End", "C": "Start"}),
    ])
    def test_terminal_disambiguation_by_position(self, body, expected):
        graph = parse_dot("digraph G { " + body + " }").graph
        assert {n.id: n.kind.value for n in graph.nodes} == expected

    def test_shape_mapping(self):
        result = parse_dot(
            'digraph G { D [shape=diamond,label="d"]; '
            'P [shape=parallelogram,label="p"]; }')
        kinds = {n.id: n.kind for n in result.graph.nodes}
        assert kinds["D"] is NodeKind.DECISION
        assert kinds["P"] is NodeKind.INPUT_OUTPUT

    def test_edge_labels_normalized(self):
        result = parse_dot('digraph G { A -> B [label="YES"]; B -> C [label="maybe"]; }')
        labels = [e.label for e in result.graph.edges]
        assert labels[0] == YES
        assert labels[1] == EdgeLabel(LabelKind.OTHER, "maybe")

    def test_edge_chain_shares_label(self):
        result = parse_dot('digraph G { A -> B -> C [label="No"]; }')
        assert [e.label for e in result.graph.edges] == [NO] * 2

    def test_comments_and_defaults_ignored(self):
        result = parse_dot(
            "digraph G {\n// a comment\n# another\n/* block */\n"
            "node [shape=box];\nrankdir=LR;\nA -> B;\n}")
        assert not result.errors()
        assert len(result.graph.edges) == 1
        assert any(d.severity is Severity.WARNING for d in result.diagnostics)

    def test_quoted_ids(self):
        result = parse_dot('digraph G { "my node" -> B; }')
        assert result.graph.nodes[0].id == "my node"

    def test_statements_may_span_lines(self):
        result = parse_dot('digraph G {\n  A ->\n  B\n  [label="Yes"]\n}')
        assert result.ok
        assert result.graph.edges[0].label == YES

    def test_undeclared_nodes_default_to_process_with_id_text(self):
        result = parse_dot("digraph G { A -> B; }")
        assert all(n.kind is NodeKind.PROCESS and n.text == n.id
                   for n in result.graph.nodes)

    def test_duplicate_edge_is_diagnosed(self):
        result = parse_dot("digraph G { A -> B; A -> B; }")
        assert validate(result.graph)
        assert any("duplicate edge" in d.message for d in result.errors())

    def test_unsupported_shape_is_a_warning_and_reads_as_a_box(self):
        result = parse_dot('digraph G {\n  A [shape=hexagon, label="Work"];\n}')
        assert result.diagnostics == [ParseDiagnostic(
            2, "unsupported shape 'hexagon' treated as box", Severity.WARNING)]
        assert [(n.id, n.kind, n.text) for n in result.graph.nodes] == [
            ("A", NodeKind.PROCESS, "Work")]

    def test_empty_label_on_box_is_diagnosed(self):
        result = parse_dot('digraph G { A [shape=box, label=""]; }')
        assert any("empty label" in d.message for d in result.errors())

    @pytest.mark.parametrize("text", [
        'digraph G {\n"" -> B;\n}', 'digraph G {\nA -> B\n -> "" -> "";\n}'])
    def test_empty_id_endpoint_is_diagnosed_as_an_empty_label(self, text):
        # declared as a Process node named after its id, so its text is empty
        result = parse_dot(text)
        assert [str(d) for d in result.diagnostics] == [
            "line 2: error: Process node '' has empty label"]
        assert validate(result.graph)
        assert_parses_like_reference(text, Dialect.DOT)

    def test_attribute_without_value_leaves_the_list_going(self):
        result = parse_dot(
            'digraph G {\n A [label=];\n B -> C;\n D [shape=box, label="x"];\n}\n')
        assert [(d.line, d.message) for d in result.errors()] == [
            (2, "attribute 'label' has no value")]
        assert [n.id for n in result.graph.nodes] == ["A", "B", "C", "D"]
        assert [(e.src, e.dst) for e in result.graph.edges] == [("B", "C")]
        result = parse_dot('digraph G { A [label=, shape=diamond]; }')
        assert [d.message for d in result.errors()] == [
            "attribute 'label' has no value"]
        assert result.graph.nodes[0].kind is NodeKind.DECISION

    def test_graph_attribute_without_value_leaves_the_brace(self):
        text = "digraph G {\n A -> B;\n rankdir=\n}\n"
        assert diagnostic_lines(text) == [(3, "attribute 'rankdir' has no value")]
        assert_parses_like_reference(text, Dialect.DOT)

    def test_text_after_the_closing_brace_is_an_error(self):
        text = "digraph G {\n A -> B;\n}\nC -> D;\n"
        assert diagnostic_lines(text) == [(4, "unexpected text after closing '}'")]
        assert [(e.src, e.dst) for e in parse_dot(text).graph.edges] == [("A", "B")]
        assert_parses_like_reference(text, Dialect.DOT)


# --- referees ---------------------------------------------------------------
# The DOT lexer and parser and the Mermaid node and arrow loops as they were
# before the single-pass rewrite: a token object with its line per token, one
# method call per look-ahead, one ``match`` per shape and per arrow pattern.
# ``parse_dot`` and ``parse_mermaid`` must give equal graphs and diagnostics.
# A DOT recovery fix is made here first (a key with no value, text after the
# closing brace, an edge endpoint with an empty id), so the two keep agreeing.

_REF_DOT_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*|\#[^\n]*|/\*.*?\*/)
  | (?P<unterminated>/\*.*)
  | (?P<string>"(?:\\.|[^"\\])*")
  | (?P<arrow>->|--)
  | (?P<punct>[{}\[\]=;,])
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*|-?\d+(?:\.\d+)?)
    """,
    re.VERBOSE | re.DOTALL,
)


class _RefTok(NamedTuple):
    kind: str
    value: str
    line: int


def reference_dot_tokenize(text):
    tokens = []
    diagnostics = []
    pos = 0
    line = 1
    for m in _REF_DOT_TOKEN.finditer(text):
        for char in text[pos:m.start()]:
            diagnostics.append(ParseDiagnostic(
                line, f"unexpected character {char!r}", Severity.ERROR))
        kind = m.lastgroup
        value = m.group()
        pos = m.end()
        if kind == "unterminated":
            diagnostics.append(ParseDiagnostic(line, "unterminated comment", Severity.ERROR))
        elif kind == "ws" or kind == "comment":
            line += value.count("\n")
        else:
            tokens.append(_RefTok(kind, value, line))
            if kind == "string":
                line += value.count("\n")
    for char in text[pos:]:
        diagnostics.append(ParseDiagnostic(
            line, f"unexpected character {char!r}", Severity.ERROR))
    return tokens, diagnostics


def _ref_dot_unquote(value):
    if value.startswith('"') and value.endswith('"'):
        return value[1:-1].replace('\\"', '"').replace("\\\\", "\\")
    return value


class ReferenceDotParser:
    def __init__(self, tokens, last_line):
        self.tokens = tokens
        self.pos = 0
        self.last_line = last_line
        self.builder = _Builder()
        self.diagnostics = []

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is not None:
            self.pos += 1
        return tok

    def error(self, line, message):
        self.diagnostics.append(ParseDiagnostic(line, message, Severity.ERROR))

    def warn(self, line, message):
        self.diagnostics.append(ParseDiagnostic(line, message, Severity.WARNING))

    def expect_punct(self, value):
        tok = self.peek()
        if tok and tok.kind == "punct" and tok.value == value:
            self.next()
            return True
        return False

    def parse(self):
        tok = self.peek()
        if tok and tok.kind == "name" and tok.value == "strict":
            self.next()
            tok = self.peek()
        if tok and tok.kind == "name" and tok.value in ("digraph", "graph"):
            self.next()
        else:
            self.error(tok.line if tok else 1, "expected 'digraph' or 'graph'")
        tok = self.peek()
        if tok and tok.kind in ("name", "string") and tok.value != "{":
            self.next()  # graph id
        if not self.expect_punct("{"):
            tok = self.peek()
            self.error(tok.line if tok else self.last_line, "expected '{'")
        closed = False
        while True:
            tok = self.peek()
            if tok is None:
                break
            if tok.kind == "punct" and tok.value == "}":
                self.next()
                closed = True
                break
            self.statement()
        if not closed:
            self.error(self.last_line, "missing closing '}'")
        elif self.peek() is not None:
            self.error(self.peek().line, "unexpected text after closing '}'")
        return ParseResult(self.builder.build(), self.diagnostics)

    def attr_list(self):
        attrs = {}
        while self.expect_punct("["):
            while True:
                tok = self.peek()
                if tok is None:
                    self.error(self.last_line, "unterminated attribute list")
                    return attrs
                if tok.kind == "punct" and tok.value == "]":
                    self.next()
                    break
                if tok.kind in ("name", "string"):
                    name = _ref_dot_unquote(self.next().value)
                    if self.expect_punct("="):
                        vtok = self.peek()
                        if vtok is None or vtok.kind not in ("name", "string"):
                            self.error(tok.line, f"attribute {name!r} has no value")
                        else:
                            self.next()
                            attrs[name] = _ref_dot_unquote(vtok.value)
                    self.expect_punct(",")
                else:
                    self.error(tok.line, f"unexpected token {tok.value!r} in attribute list")
                    self.next()
        return attrs

    def apply_node_attrs(self, node_id, attrs, line):
        self.builder.ensure(node_id)
        kinds = self.builder.kinds
        shape = attrs.get("shape", "").casefold()
        text = attrs.get("label", self.builder.texts[node_id])
        if shape in _DOT_TERMINAL_SHAPES:
            existing = kinds[node_id]
            if existing in (NodeKind.START, NodeKind.END):
                kind = existing
            elif any(k is NodeKind.START for nid, k in kinds.items() if nid != node_id):
                kind = NodeKind.END
            else:
                kind = NodeKind.START
        elif shape in _DOT_SHAPE_KINDS:
            kind = _DOT_SHAPE_KINDS[shape]
        elif shape:
            self.warn(line, f"unsupported shape {shape!r} treated as box")
            kind = NodeKind.PROCESS
        else:
            kind = kinds[node_id]
        if not text and not kind.is_terminal:
            self.error(line, f"{kind.value} node {node_id!r} has empty label")
        self.builder.define(node_id, kind, text)

    def statement(self):
        tok = self.next()
        if tok is None:
            return
        if tok.kind == "punct" and tok.value == ";":
            return
        if tok.kind == "name" and tok.value in ("node", "edge", "graph"):
            nxt = self.peek()
            if nxt and nxt.kind == "punct" and nxt.value == "[":
                self.attr_list()
                self.warn(tok.line, f"default {tok.value!r} attributes are ignored")
                self.expect_punct(";")
                return
        if tok.kind not in ("name", "string"):
            self.error(tok.line, f"unexpected token {tok.value!r}")
            return
        first_id = _ref_dot_unquote(tok.value)
        nxt = self.peek()
        if nxt and nxt.kind == "punct" and nxt.value == "=":
            self.next()
            vtok = self.peek()
            if vtok is None or vtok.kind not in ("name", "string"):
                self.error(tok.line, f"attribute {first_id!r} has no value")
            else:
                self.next()
                self.warn(tok.line, f"graph attribute {first_id!r} is ignored")
            self.expect_punct(";")
            return
        endpoints = [first_id]
        while True:
            nxt = self.peek()
            if nxt and nxt.kind == "arrow":
                self.next()
                target = self.next()
                if target is None or target.kind not in ("name", "string"):
                    self.error(nxt.line, "edge arrow without a target node")
                    return
                endpoints.append(_ref_dot_unquote(target.value))
            else:
                break
        attrs = self.attr_list()
        self.expect_punct(";")
        if len(endpoints) == 1:
            self.apply_node_attrs(first_id, attrs, tok.line)
            return
        label = EdgeLabel.from_text(attrs.get("label"))
        for node_id in endpoints:
            if not node_id and node_id not in self.builder.kinds:
                self.error(tok.line, "Process node '' has empty label")
            self.builder.ensure(node_id)
        for src, dst in zip(endpoints, endpoints[1:]):
            if not self.builder.add_edge(src, dst, label):
                self.error(tok.line, f"duplicate edge {src} -> {dst}")


def reference_parse_dot(text):
    tokens, lex_diags = reference_dot_tokenize(text)
    result = ReferenceDotParser(tokens, text.count("\n") + 1).parse()
    result.diagnostics[:0] = lex_diags
    return result


_REF_MERMAID_ID = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_MERMAID_SHAPES = [
    (re.compile(r'\(\("((?:[^"]|#quot;)*)"\)\)'), "terminal"),
    (re.compile(r"\(\(([^)]*)\)\)"), "terminal"),
    (re.compile(r'\(\["((?:[^"]|#quot;)*)"\]\)'), "terminal"),
    (re.compile(r"\(\[(.*?)\]\)"), "terminal"),
    (re.compile(r'\[/"((?:[^"]|#quot;)*)"/\]'), "io"),
    (re.compile(r"\[/(.*?)/\]"), "io"),
    (re.compile(r'\{"((?:[^"]|#quot;)*)"\}'), "decision"),
    (re.compile(r"\{([^}]*)\}"), "decision"),
    (re.compile(r'\["((?:[^"]|#quot;)*)"\]'), "process"),
    (re.compile(r"\[([^]]*)\]"), "process"),
]
_REF_MERMAID_ARROWS = [
    re.compile(r"-->\s*\|([^|]*)\|"),
    re.compile(r"--\s*([^->][^-]*?)\s*-->"),
    re.compile(r"-->"),
]
# the node and arrow regexes that parse_mermaid used before it read quoted
# shapes and inline labels without backtracking: the same texts, the same
# groups, but exponential time in an unclosed quoted shape and quadratic
# time in an unclosed inline label's whitespace
_REF_MERMAID_NODE = re.compile(
    r"([A-Za-z_][A-Za-z0-9_]*)(?:"
    + "|".join(pattern.pattern for pattern, _ in _REF_MERMAID_SHAPES) + ")?")
_REF_MERMAID_ARROW = re.compile(
    r"\s*(?:" + "|".join(pattern.pattern for pattern in _REF_MERMAID_ARROWS) + r")\s*")


def _ref_mermaid_node_ref(builder, line, pos, lineno, diagnostics):
    m = _REF_MERMAID_ID.match(line, pos)
    if not m:
        return None
    node_id = m.group(0)
    pos = m.end()
    for pattern, shape in _REF_MERMAID_SHAPES:
        sm = pattern.match(line, pos)
        if not sm:
            continue
        text = _strip_quotes(sm.group(1))
        if '"' in pattern.pattern:  # a quoted shape
            text = text.replace("#quot;", '"')
        if shape == "terminal":
            builder.ensure(node_id)
            kind = _terminal_kind(text, builder, node_id)
        elif shape == "io":
            kind = NodeKind.INPUT_OUTPUT
        elif shape == "decision":
            kind = NodeKind.DECISION
        else:
            kind = NodeKind.PROCESS
        if not text and not kind.is_terminal:
            diagnostics.append(ParseDiagnostic(
                lineno, f"{kind.value} node {node_id!r} has empty text",
                Severity.ERROR))
        builder.define(node_id, kind, text)
        return node_id, sm.end()
    builder.ensure(node_id)
    return node_id, pos


def reference_parse_mermaid(text):
    builder = _Builder()
    diagnostics = []
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
            header_seen = True
        ref = _ref_mermaid_node_ref(builder, line, 0, lineno, diagnostics)
        if ref is None:
            diagnostics.append(ParseDiagnostic(
                lineno, f"cannot parse statement: {line!r}", Severity.ERROR))
            continue
        node_id, pos = ref
        while pos < len(line):
            while pos < len(line) and line[pos].isspace():
                pos += 1
            if pos >= len(line):
                break
            label = None
            arrow_end = -1
            for i, pattern in enumerate(_REF_MERMAID_ARROWS):
                am = pattern.match(line, pos)
                if am:
                    label = EdgeLabel.from_text(am.group(1)) if i < 2 else UNLABELED
                    arrow_end = am.end()
                    break
            if arrow_end < 0:
                diagnostics.append(ParseDiagnostic(
                    lineno, f"unbalanced bracket or unexpected text: {line[pos:]!r}",
                    Severity.ERROR))
                break
            pos = arrow_end
            while pos < len(line) and line[pos].isspace():
                pos += 1
            ref = _ref_mermaid_node_ref(builder, line, pos, lineno, diagnostics)
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


def assert_parses_like_reference(text, dialect):
    parse, reference = {
        Dialect.DOT: (parse_dot, reference_parse_dot),
        Dialect.MERMAID: (parse_mermaid, reference_parse_mermaid),
    }[dialect]
    result, expected = parse(text), reference(text)
    assert (result.graph, result.diagnostics) == (expected.graph, expected.diagnostics)


def diagnostic_lines(text):
    return [(d.line, d.message) for d in parse_dot(text).diagnostics]


# ``_DOT_TOKEN`` with its string token written ``"(?:\\.|[^"\\])*"``, one
# alternation per character; the unrolled form reads the same language
_ALTERNATING_DOT_TOKEN = re.compile(
    r"""
    (?:\s+|//[^\n]*|\#[^\n]*|/\*.*?\*/)*
    ("(?:\\.|[^"\\])*"|->|--|[{}\[\]=;,]|[A-Za-z_][A-Za-z0-9_]*|-?\d+(?:\.\d+)?|/\*.*|.|\Z)
    """,
    re.VERBOSE | re.DOTALL,
)


class TestDotLexer:
    """The one-pass DOT lexer, through the diagnostics ``parse_dot`` reports
    and against the referee."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ['"', "\\", "/*", "*/", "//", "#", "->", "-", "1", "2.5", "a", "Z_", "\n", " ",
         '"x"', '"a\\"b"']), max_size=40).map("".join))
    def test_unrolled_strings_lex_as_the_alternating_form(self, text):
        assert _DOT_TOKEN.findall(text) == _ALTERNATING_DOT_TOKEN.findall(text)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_emitted_dot(self, seed):
        rng = random.Random(seed)
        for graph in (rand_flow_graph(rng), rand_structured_graph(rng)):
            assert_parses_like_reference(emit(graph, Dialect.DOT).text, Dialect.DOT)

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=st.sampled_from(
        list('ab_19.-> \t\r\n"\\/*#{}[]=;,@%$\u00e9\u2028')), max_size=60)
        | st.lists(st.sampled_from(
            ["digraph ", "strict ", "graph ", "node ", "G", " A", " B", "1", "->", "--",
             "[", "]", "{", "}", "=", ";", ",", " label", " shape", "oval", "box", "diamond",
             "hexagon", '"x"', '""', '"yes"', '"a\\"b"', "\n", " ", "//c\n", "/*c*/", "@"]),
            max_size=40).map("".join)
        | st.text(max_size=40))
    def test_arbitrary_text(self, text):
        assert_parses_like_reference(text, Dialect.DOT)

    def test_skipped_characters_are_reported_one_by_one(self):
        assert diagnostic_lines('a @$\nb "open') == [
            (1, "unexpected character '@'"), (1, "unexpected character '$'"),
            (2, "unexpected character '\"'"),
            (1, "expected 'digraph' or 'graph'"), (2, "expected '{'"),
            (2, "missing closing '}'")]

    def test_lines_advance_inside_strings_and_comments(self):
        text = 'digraph G {\n"x\ny" -> ] /* c\n */ ] // d\n# e\n ] }'
        assert diagnostic_lines(text) == [
            (3, "edge arrow without a target node"),
            (4, "unexpected token ']'"), (6, "unexpected token ']'")]
        assert_parses_like_reference(text, Dialect.DOT)

    @pytest.mark.parametrize("text, line", [
        ("digraph G {\nA -> B /* x\n C -> D }", 2),
        ("digraph G { /* a */ A @\n/* b /* c\n", 2),
        ("/*", 1),
    ])
    def test_unterminated_comment_runs_to_the_end(self, text, line):
        assert [d.line for d in parse_dot(text).diagnostics
                if d.message == "unterminated comment"] == [line]
        assert_parses_like_reference(text, Dialect.DOT)

    def test_unterminated_comment_openers_lex_in_linear_time(self):
        start = time.perf_counter()
        result = parse_dot("digraph G { " + "/* " * 16000 + "}")
        assert time.perf_counter() - start < 1.0
        # the comment runs to the end, so it takes the closing brace with it
        assert [str(d) for d in result.diagnostics] == [
            "line 1: error: unterminated comment", "line 1: error: missing closing '}'"]


# Mermaid text over the alphabet the grammar reads, as loose pieces and as
# statements of node references (every shape, quoted or not) and arrows.
_mermaid_pieces = st.lists(st.sampled_from(
    ["flowchart TD\n", "graph LR\n", "A", "B", "c_1", " ", "-->", "--", "-", "|", "([",
     "])", "((", "))", "[/", "/]", "[", "]", "{", "}", "(", ")", '"', "#quot;", "%%",
     "\n", "Yes", "start", "end", "x"]), max_size=40).map("".join)
_mermaid_shape_text = st.lists(st.sampled_from(
    ["x", " ", '"', "#quot;", "start", "Done", "]", ")", "/", "}", "|", "-"]),
    max_size=4).map("".join)
_MERMAID_BRACKETS = [("((", "))"), ("([", "])"), ("[/", "/]"), ("{", "}"), ("[", "]"), ("(", ")")]
_mermaid_node = st.builds(
    lambda node_id, brackets, text, quoted: node_id + (
        brackets[0] + (f'"{text}"' if quoted else text) + brackets[1] if brackets else ""),
    st.sampled_from(["A", "B", "c_1"]), st.none() | st.sampled_from(_MERMAID_BRACKETS),
    _mermaid_shape_text, st.booleans())
_mermaid_arrow = st.sampled_from(
    ["-->", " --> ", "-->|Yes|", "--> | no |", "-->||", "-- x -->", "--Yes-->", "--", "->"])
_mermaid_statements = st.lists(
    st.builds(lambda first, rest: first + "".join(a + n for a, n in rest),
              _mermaid_node, st.lists(st.tuples(_mermaid_arrow, _mermaid_node), max_size=3))
    | st.sampled_from(["%% note", "  ", "A-->B %% c", "flowchart LR"]),
    max_size=8).map("\n".join)


class TestMermaidReferee:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_emitted_mermaid(self, seed):
        rng = random.Random(seed)
        for graph in (rand_flow_graph(rng), rand_structured_graph(rng)):
            assert_parses_like_reference(emit(graph, Dialect.MERMAID).text, Dialect.MERMAID)

    @settings(max_examples=200, deadline=None)
    @given(_mermaid_pieces | st.text(max_size=40)
           | _mermaid_statements.map(lambda body: "flowchart TD\n" + body))
    def test_arbitrary_text(self, text):
        assert_parses_like_reference(text, Dialect.MERMAID)

    def test_every_shape_quoted_or_not(self):
        for left, right in _MERMAID_BRACKETS:
            for text in ("", "x", "Start here", 'a "b', "a #quot;b", "a ] b", "a ) b",
                         "a / b", "a } b", "done"):
                for shaped in (f"{left}{text}{right}", f'{left}"{text}"{right}'):
                    assert_parses_like_reference(
                        f"flowchart TD\nA{shaped} --> B{shaped}\nC{shaped}", Dialect.MERMAID)


def _match_parts(m):
    return m and (m.span(), m.lastindex, m.groups())


class TestMermaidRegexes:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(
        ["A", "x", " ", "\t ", "-", "--", "-->", ">", "|", '"', "#quot;", "%%", "[", "]",
         "(", ")", "{", "}", "/"]), max_size=12).map("".join))
    # labels that start at the last whitespace character, or are only that
    @example(" -- --> B")
    @example(" --  >x --> B")
    @example(" -- \t> x  \t-->")
    @example(' A["a #quot;b"] ')
    def test_same_matches_and_groups_as_the_referee(self, text):
        for pattern, referee in ((_MERMAID_NODE, _REF_MERMAID_NODE),
                                 (_MERMAID_ARROW, _REF_MERMAID_ARROW)):
            for pos in range(len(text) + 1):
                assert (_match_parts(pattern.match(text, pos))
                        == _match_parts(referee.match(text, pos))), (text, pos)

    def test_unclosed_quoted_shape_parses_in_linear_time(self):
        text = '"' + "#quot;" * 200 + "x"
        start = time.perf_counter()
        result = parse_mermaid(f"flowchart TD\nA[{text}]")
        assert time.perf_counter() - start < 1.0
        assert result.ok
        assert [(n.id, n.kind, n.text) for n in result.graph.nodes] == [
            ("A", NodeKind.PROCESS, text)]

    @pytest.mark.parametrize("line", [
        "A -- x" + " " * 32000 + "y",  # 6 s with the referee's regex
        "A --" + " " * 1600 + "x",  # 5 s with the referee's regex, cubic in the run
        "A --" + " " * 32000 + "x" + " " * 32000 + "%% y",
    ], ids=["after-label", "before-label", "before-comment"])
    def test_unclosed_inline_label_is_rejected_in_linear_time(self, line):
        start = time.perf_counter()
        result = parse_mermaid("flowchart TD\n" + line)
        assert time.perf_counter() - start < 1.0
        [error] = result.errors()
        assert error.message.startswith("unbalanced bracket or unexpected text: '--")


class TestHostileInput:
    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80) | st.lists(st.sampled_from(
        ["@startuml\n", "@enduml\n", "flowchart TD\n", "digraph G {", "}", "if (x) then\n",
         "else\n", "endif\n", "repeat\n", "repeat while (y)\n", ":a;\n", "start\n", "A-->B",
         "A -> B;", "[", "]", '"', "/*", "\n"]), max_size=30).map("".join))
    def test_no_parser_raises(self, text):
        for dialect in Dialect:
            assert isinstance(parse_text(text, dialect)[1], ParseResult)
        try:
            dialect, result = parse_text(text)
        except UnknownDialectError:
            return
        assert isinstance(result, ParseResult)


# Statements that break the graph invariants in every way a parser lets
# through: duplicate edges, empty texts, redeclared nodes, and bad lines.
_dot_statements = st.lists(st.sampled_from(
    ["A -> B;", "A -> B [label=yes];", "A -> B;", "B -> A -> B;", '"" -> B;', "A -> A;",
     'A [shape=box, label=""];', "A [shape=oval];", 'B [label="x"];', "C [shape=hexagon];",
     "C -> ;", "A [label=];", "rankdir=LR;", "node [shape=box];", "]", "@"]),
    max_size=12).map(lambda body: "digraph G {\n" + "\n".join(body) + "\n}")
_plantuml_statements = st.lists(st.sampled_from(
    ["start", "stop", ":a;", ":a;", ":;", "if (c) then", "if () then ()", "else", "else ()",
     "endif", "repeat", "repeat while (x)", "repeat while ()", "-> L;", "title t", "swimlane"]),
    max_size=14).map(lambda body: "@startuml\n" + "\n".join(body) + "\n@enduml")


class TestParsedGraphsArriveValidated:
    """A parsed graph's stored validate() result is what the check finds on
    an equal graph built by hand."""

    @settings(max_examples=200, deadline=None)
    @given(_mermaid_statements.map(lambda body: "flowchart TD\n" + body)
           | _dot_statements | _plantuml_statements | _mermaid_pieces | st.text(max_size=40))
    def test_stored_result_equals_the_check(self, text):
        for dialect in Dialect:
            graph = parse_text(text, dialect)[1].graph
            assert validate(graph) == validate(FlowGraph(graph.nodes, graph.edges, graph.title))

    @settings(max_examples=200, deadline=None)
    @given(_mermaid_statements.map(lambda body: "flowchart TD\n" + body)
           | _dot_statements | _plantuml_statements | _mermaid_pieces | st.text(max_size=40))
    @example('digraph G {\n"" -> B;\n}')
    def test_a_parse_without_errors_validates(self, text):
        for dialect in Dialect:
            result = parse_text(text, dialect)[1]
            assert not result.ok or validate(result.graph) == [], (dialect, result)


class TestBuilderStarts:
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from("abc"),
                              st.sampled_from(list(NodeKind)))))
    def test_terminal_kind_equals_a_scan_of_every_kind(self, steps):
        builder = _Builder()
        for is_define, node_id, kind in steps:
            if is_define:
                builder.define(node_id, kind, "text")
            else:
                builder.ensure(node_id)
            for nid in "abcd":
                existing = builder.kinds.get(nid)
                if existing in (NodeKind.START, NodeKind.END):
                    expected = existing
                elif any(k is NodeKind.START for other, k in builder.kinds.items()
                         if other != nid):
                    expected = NodeKind.END
                else:
                    expected = NodeKind.START
                assert builder.terminal_kind(nid) is expected


class TestParsePlantUml:
    def test_linear_chart(self):
        # hand enumeration: start, one action, stop
        result = parse_plantuml("@startuml\nstart\n:Work;\nstop\n@enduml")
        assert result.ok
        graph = result.graph
        assert [n.kind for n in graph.nodes] == [
            NodeKind.START, NodeKind.PROCESS, NodeKind.END]
        assert graph.nodes[1].text == "Work"
        assert [(e.src, e.dst) for e in graph.edges] == [("n0", "n1"), ("n1", "n2")]
        assert all(e.label == UNLABELED for e in graph.edges)

    def test_empty_document(self):
        result = parse_plantuml("@startuml\n@enduml")
        assert result.ok
        assert result.graph.nodes == () and result.graph.edges == ()

    def test_unmatched_if_is_an_error(self):
        result = parse_plantuml("@startuml\nif (x) then (yes)\n:A;\n@enduml")
        assert any("unmatched 'if'" in d.message for d in result.errors())

    def test_if_else_branches_carry_yes_no(self):
        result = parse_plantuml(
            "@startuml\nstart\nif (ok?) then (yes)\n:A;\nelse (no)\n:B;\nendif\n"
            ":C;\nstop\n@enduml")
        assert result.ok
        graph = result.graph
        decision = next(n for n in graph.nodes if n.kind is NodeKind.DECISION)
        branch_labels = {e.label for e in graph.edges if e.src == decision.id}
        assert branch_labels == {YES, NO}
        join = next(n for n in graph.nodes if n.text == "C")
        assert sum(1 for e in graph.edges if e.dst == join.id) == 2

    def test_if_without_else_falls_through_with_no(self):
        result = parse_plantuml(
            "@startuml\nstart\nif (ok?) then (yes)\n:A;\nendif\n:C;\nstop\n@enduml")
        graph = result.graph
        decision = next(n for n in graph.nodes if n.kind is NodeKind.DECISION)
        join = next(n for n in graph.nodes if n.text == "C")
        no_edges = [e for e in graph.edges
                    if e.src == decision.id and e.label == NO]
        assert [e.dst for e in no_edges] == [join.id]

    def test_repeat_builds_yes_back_edge(self):
        result = parse_plantuml(
            "@startuml\nstart\nrepeat\n:Poll;\nrepeat while (More?)\nstop\n@enduml")
        assert result.ok
        graph = result.graph
        decision = next(n for n in graph.nodes if n.kind is NodeKind.DECISION)
        poll = next(n for n in graph.nodes if n.text == "Poll")
        back = [e for e in graph.edges if e.src == decision.id and e.dst == poll.id]
        assert back and back[0].label == YES

    def test_unmatched_repeat_is_an_error(self):
        result = parse_plantuml("@startuml\nrepeat\n:A;\n@enduml")
        assert any("unmatched 'repeat'" in d.message for d in result.errors())

    def test_arrow_label_applies_to_next_edge(self):
        result = parse_plantuml(
            "@startuml\nstart\n:A;\n-> later;\n:B;\nstop\n@enduml")
        graph = result.graph
        labeled = [e for e in graph.edges if e.label == EdgeLabel(LabelKind.OTHER, "later")]
        assert len(labeled) == 1

    @pytest.mark.parametrize("body, labels", [
        # in the then branch, before 'else': the else edge keeps its No
        ("if (c) then\n:a;\n-> L;\nelse\n:b;\nendif",
         {("c", "a"): "Yes", ("c", "b"): "No", ("a", "d"): "L", ("b", "d"): None}),
        # in the else branch, before 'endif': the then branch's edge stays bare
        ("if (c) then\n:a;\nelse\n:b;\n-> L;\nendif",
         {("c", "a"): "Yes", ("c", "b"): "No", ("a", "d"): None, ("b", "d"): "L"}),
        # with no 'else': the fall-through edge keeps its No
        ("if (c) then\n:a;\n-> L;\nendif",
         {("c", "a"): "Yes", ("c", "d"): "No", ("a", "d"): "L"}),
    ])
    def test_arrow_label_stays_in_its_branch(self, body, labels):
        result = parse_plantuml(f"@startuml\n{body}\n:d;\n@enduml")
        assert result.ok
        graph = result.graph
        text = {n.id: n.text for n in graph.nodes}
        assert {(text[e.src], text[e.dst]): e.label.render() for e in graph.edges} == labels

    def test_title_and_comments(self):
        result = parse_plantuml(
            "@startuml\n' a comment\ntitle My chart\nstart\nstop\n@enduml")
        assert result.ok
        assert result.graph.title == "My chart"

    def test_unknown_statement_is_an_error(self):
        result = parse_plantuml("@startuml\nswimlane x\n@enduml")
        assert result.errors()

    def test_node_ids_are_synthesized_in_insertion_order(self):
        result = parse_plantuml("@startuml\nstart\n:A;\nstop\n@enduml")
        assert [n.id for n in result.graph.nodes] == ["n0", "n1", "n2"]

    def test_empty_action_text_is_diagnosed(self):
        result = parse_plantuml("@startuml\nstart\n:;\nstop\n@enduml")
        assert any("empty text" in d.message for d in result.errors())

    @pytest.mark.parametrize("body,diagnostics", [
        ("if () then\n:A;\nendif", [(3, "decision with empty condition")]),
        ("if (c) then\n:A;\nelse\n:B;\nelse\n:C;\nendif",
         [(7, "duplicate 'else' in one 'if' block")]),
        # both arms leave the decision unlabeled and reach the next action
        ("if (c) then ()\nelse ()\nendif\n:A;", [(6, "duplicate edge n1 -> n2")]),
        ("else\nendif\nrepeat while (x)", [
            (3, "'else' without a matching 'if'"),
            (4, "'endif' without a matching 'if'"),
            (5, "'repeat while' without a matching 'repeat'")]),
    ])
    def test_statement_errors(self, body, diagnostics):
        result = parse_plantuml(f"@startuml\nstart\n{body}\nstop\n@enduml")
        assert result.diagnostics == [ParseDiagnostic(line, message)
                                      for line, message in diagnostics]


# The backtracking ``if`` and ``repeat while`` regexes that ``_pu_if`` and
# ``_pu_repeat_while`` replaced: quadratic or worse on long lines, so they
# referee short ones only.
_REF_PU_IF = re.compile(r"^if\s*\((?P<cond>.*)\)\s*then(?:\s*\((?P<label>.*)\))?$")
_REF_PU_REPEAT_WHILE = re.compile(
    r"^repeat\s+while\s*\((?P<cond>.*?)\)"
    r"(?:\s+is\s*\((?P<back>.*?)\))?"
    r"(?:\s+not\s*\((?P<exit>.*?)\))?$"
)

_pu_condition_lines = st.tuples(
    st.sampled_from(["if (", "repeat while (", "if(", "repeat  while(", "", " if ("]),
    st.lists(st.sampled_from(
        ["if (", "repeat while (", ") then (", ") is (", ") not (", "(", ")", " ", "  ",
         "\t", "\u00a0", "x", "ok?", "then", "is", "not", "if", "repeat", "while"]),
        max_size=10),
    st.sampled_from(["", ")", "x", ") then", ") then (y)", ") then)", ") then x", " ) then () ",
                     ") is (y)", ") not (z)", ") is (y) not (z)", ")  is(y)not (z)",
                     ") is (y) not (z", ") not (z))"]),
).map(lambda parts: parts[0] + "".join(parts[1]) + parts[2])

# (lead, repeated piece): shapes that made the regexes backtrack for seconds
# at a few kilobytes
_PU_SLOW_SHAPES = [("repeat while (", ") is () not ("), ("repeat while (", ") is ("),
                   ("if (", ") then (")]


def _ref_groups(regex, line):
    m = regex.match(line)
    return None if m is None else m.groups()


class TestPlantUmlConditionLines:
    @settings(max_examples=400, deadline=None)
    @given(_pu_condition_lines)
    def test_split_like_the_backtracking_regexes(self, line):
        assert _pu_if(line) == _ref_groups(_REF_PU_IF, line)
        assert _pu_repeat_while(line) == _ref_groups(_REF_PU_REPEAT_WHILE, line)

    @pytest.mark.parametrize("line", [
        "if (a) then", "if (a) then (yes)", "if(a)then(b)", "if (a) then (b) then (c)",
        "if (a (b)) then", "if (a) then ()", "if (a) then (", "if () then",
        "repeat while (a)", "repeat while (a) is (b)", "repeat while (a) not (c)",
        "repeat while (a) is (b) not (c)", "repeat while (a) is (b)) not (c)",
        "repeat while (a) not (b) is (c)", "repeat while () is () not ()",
        "repeat while (a) is (b", "repeat while (a)x"])
    def test_examples_split_like_the_regexes(self, line):
        assert _pu_if(line) == _ref_groups(_REF_PU_IF, line)
        assert _pu_repeat_while(line) == _ref_groups(_REF_PU_REPEAT_WHILE, line)

    @pytest.mark.parametrize("lead, piece", _PU_SLOW_SHAPES)
    @pytest.mark.parametrize("end", ["", ")"])
    def test_50_kb_line_parses_in_linear_time(self, lead, piece, end):
        def chart(repeats):
            return f"@startuml\nstart\nrepeat\n:a;\n{lead}{piece * repeats}{end}\n@enduml"

        small = parse_plantuml(chart(3))
        started = time.perf_counter()
        large = parse_plantuml(chart(50_000 // len(piece)))
        assert time.perf_counter() - started < 10.0
        # the long line splits as its short form does
        assert [d.message.split(":")[0] for d in large.diagnostics] == [
            d.message.split(":")[0] for d in small.diagnostics]
        assert [n.kind for n in large.graph.nodes] == [n.kind for n in small.graph.nodes]


class TestParseDispatch:
    def test_parse_text_detects_and_parses(self):
        dialect, result = parse_text("digraph G { A -> B; }")
        assert dialect is Dialect.DOT
        assert result.ok

    def test_deterministic(self):
        text = "flowchart TD\nA-->B\nB-->C"
        first = parse_text(text)
        second = parse_text(text)
        assert first[0] is second[0]
        assert first[1].graph == second[1].graph
        assert first[1].diagnostics == second[1].diagnostics
