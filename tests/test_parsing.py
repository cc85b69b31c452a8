"""Dialect detection and the three parsers, including error recovery."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from flowsra.emitting import emit
from flowsra.ir import EdgeLabel, NodeKind, validate
from flowsra.parsing import (
    _DOT_TOKEN,
    Dialect,
    ParseDiagnostic,
    Severity,
    UnknownDialectError,
    _Builder,
    _dot_tokenize,
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

    def test_dot_markers(self):
        assert detect_dialect("digraph G { A -> B }") is Dialect.DOT
        assert detect_dialect("graph { a -- b }") is Dialect.DOT
        assert detect_dialect("graph G { a }") is Dialect.DOT

    def test_plantuml_marker(self):
        assert detect_dialect("@startuml\nstart\n@enduml") is Dialect.PLANTUML

    def test_unknown(self):
        with pytest.raises(UnknownDialectError):
            detect_dialect("hello world")
        with pytest.raises(UnknownDialectError):
            detect_dialect("   \n\n  ")

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
        assert graph.edges[1].label == EdgeLabel.yes()
        assert graph.edges[0].label == EdgeLabel.none()

    def test_header_only_is_empty_graph(self):
        result = parse_mermaid("flowchart TD")
        assert result.ok
        assert result.graph.is_empty

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
        assert pipe.edges[0].label == EdgeLabel.yes()
        assert inline.edges[0].label == EdgeLabel.yes()

    def test_edge_chain(self):
        graph = parse_mermaid("flowchart TD\nA --> B --> C").graph
        assert [(e.src, e.dst) for e in graph.edges] == [("A", "B"), ("B", "C")]

    def test_labeled_chain_with_inline_declarations(self):
        graph = parse_mermaid(
            "flowchart TD\nA{ok?} -->|Yes| B[go] -->|done| C([End])").graph
        assert [n.kind for n in graph.nodes] == [
            NodeKind.DECISION, NodeKind.PROCESS, NodeKind.END]
        assert [e.label for e in graph.edges] == [
            EdgeLabel.yes(), EdgeLabel.other("done")]

    def test_comments_stripped(self):
        result = parse_mermaid("flowchart TD\n%% a comment\nA-->B %% trailing")
        assert result.ok
        assert len(result.graph.edges) == 1

    def test_io_shape(self):
        graph = parse_mermaid("flowchart TD\nA[/Read file/]").graph
        assert graph.nodes[0].kind is NodeKind.INPUT_OUTPUT
        assert graph.nodes[0].text == "Read file"

    def test_quoted_text_with_delimiters(self):
        graph = parse_mermaid('flowchart TD\nA["a [b] c"]').graph
        assert graph.nodes[0].text == "a [b] c"

    def test_terminal_disambiguation_by_text_then_position(self):
        graph = parse_mermaid(
            "flowchart TD\nA([Begin])-->B([Finish])\nC((spare))").graph
        kinds = {n.id: n.kind for n in graph.nodes}
        assert kinds["A"] is NodeKind.START
        assert kinds["B"] is NodeKind.END
        assert kinds["C"] is NodeKind.END  # a start already exists

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
        assert graph.edges[0].label == EdgeLabel.none()

    def test_empty_graph(self):
        result = parse_dot("digraph G {}")
        assert result.ok
        assert result.graph.is_empty

    def test_unclosed_brace_reports_final_line(self):
        text = "digraph G {\n  A -> B;\n"
        result = parse_dot(text)
        errors = result.errors()
        assert errors and errors[-1].line == text.count("\n") + 1

    def test_first_oval_is_start_remaining_are_end(self):
        result = parse_dot(
            'digraph G { A [shape=oval,label="x"]; B [shape=ellipse,label="y"]; '
            'C [shape=oval,label="z"]; }')
        kinds = [n.kind for n in result.graph.nodes]
        assert kinds == [NodeKind.START, NodeKind.END, NodeKind.END]

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
        assert labels[0] == EdgeLabel.yes()
        assert labels[1] == EdgeLabel.other("maybe")

    def test_edge_chain_shares_label(self):
        result = parse_dot('digraph G { A -> B -> C [label="No"]; }')
        assert [e.label for e in result.graph.edges] == [EdgeLabel.no()] * 2

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
        assert result.graph.edges[0].label == EdgeLabel.yes()

    def test_undeclared_nodes_default_to_process_with_id_text(self):
        result = parse_dot("digraph G { A -> B; }")
        assert all(n.kind is NodeKind.PROCESS and n.text == n.id
                   for n in result.graph.nodes)

    def test_duplicate_edge_is_diagnosed(self):
        result = parse_dot("digraph G { A -> B; A -> B; }")
        assert validate(result.graph)
        assert any("duplicate edge" in d.message for d in result.errors())

    def test_empty_label_on_box_is_diagnosed(self):
        result = parse_dot('digraph G { A [shape=box, label=""]; }')
        assert any("empty label" in d.message for d in result.errors())


def reference_dot_tokenize(text):
    """The DOT lexer as first written, one ``match`` per position: the
    referee for ``_dot_tokenize``."""
    tokens = []
    diagnostics = []
    pos = 0
    line = 1
    while pos < len(text):
        m = _DOT_TOKEN.match(text, pos)
        if not m:
            diagnostics.append(ParseDiagnostic(
                line, f"unexpected character {text[pos]!r}", Severity.ERROR))
            pos += 1
            continue
        kind = m.lastgroup or ""
        value = m.group(0)
        if kind not in ("ws", "comment"):
            tokens.append((kind, value, line))
        line += value.count("\n")
        pos = m.end()
    return tokens, diagnostics


def assert_lexes_like_reference(text):
    tokens, diagnostics = _dot_tokenize(text)
    assert ([(t.kind, t.value, t.line) for t in tokens], diagnostics) == (
        reference_dot_tokenize(text))


class TestDotLexer:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_emitted_dot(self, seed):
        rng = random.Random(seed)
        for graph in (rand_flow_graph(rng), rand_structured_graph(rng)):
            assert_lexes_like_reference(emit(graph, Dialect.DOT).text)

    @settings(max_examples=150, deadline=None)
    @given(st.text(alphabet=st.sampled_from(
        list('ab_19.-> \t\r\n"\\/*#{}[]=;,@%$\u00e9\u2028')), max_size=60) | st.text(max_size=40))
    def test_arbitrary_text(self, text):
        assert_lexes_like_reference(text)

    def test_skipped_characters_are_reported_one_by_one(self):
        tokens, diagnostics = _dot_tokenize('a @$\nb "open')
        assert [(t.kind, t.value, t.line) for t in tokens] == [
            ("name", "a", 1), ("name", "b", 2), ("name", "open", 2)]
        assert [(d.line, d.message) for d in diagnostics] == [
            (1, "unexpected character '@'"), (1, "unexpected character '$'"),
            (2, "unexpected character '\"'")]


    def test_lines_advance_inside_strings_and_comments(self):
        text = 'a "x\ny" /* c\n */ b // d\n# e\n c'
        assert_lexes_like_reference(text)
        tokens, _ = _dot_tokenize(text)
        assert [(t.value, t.line) for t in tokens] == [
            ("a", 1), ('"x\ny"', 1), ("b", 3), ("c", 5)]


class TestBuilderStarts:
    @given(st.lists(st.tuples(st.booleans(), st.sampled_from("abc"),
                              st.sampled_from(list(NodeKind)))))
    def test_has_start_equals_a_scan_of_every_kind(self, steps):
        builder = _Builder()
        for is_define, node_id, kind in steps:
            if is_define:
                builder.define(node_id, kind, "text")
            else:
                builder.ensure(node_id, kind)
            for excluding in (None, "a", "b", "c", "d"):
                assert builder.has_start(excluding) == any(
                    k is NodeKind.START and nid != excluding
                    for nid, k in builder._kinds.items())


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
        assert all(e.label == EdgeLabel.none() for e in graph.edges)

    def test_empty_document(self):
        result = parse_plantuml("@startuml\n@enduml")
        assert result.ok
        assert result.graph.is_empty

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
        branch_labels = {e.label for e in graph.out_edges(decision.id)}
        assert branch_labels == {EdgeLabel.yes(), EdgeLabel.no()}
        join = next(n for n in graph.nodes if n.text == "C")
        assert len(graph.in_edges(join.id)) == 2

    def test_if_without_else_falls_through_with_no(self):
        result = parse_plantuml(
            "@startuml\nstart\nif (ok?) then (yes)\n:A;\nendif\n:C;\nstop\n@enduml")
        graph = result.graph
        decision = next(n for n in graph.nodes if n.kind is NodeKind.DECISION)
        join = next(n for n in graph.nodes if n.text == "C")
        no_edges = [e for e in graph.out_edges(decision.id) if e.label == EdgeLabel.no()]
        assert [e.dst for e in no_edges] == [join.id]

    def test_repeat_builds_yes_back_edge(self):
        result = parse_plantuml(
            "@startuml\nstart\nrepeat\n:Poll;\nrepeat while (More?)\nstop\n@enduml")
        assert result.ok
        graph = result.graph
        decision = next(n for n in graph.nodes if n.kind is NodeKind.DECISION)
        poll = next(n for n in graph.nodes if n.text == "Poll")
        back = [e for e in graph.out_edges(decision.id) if e.dst == poll.id]
        assert back and back[0].label == EdgeLabel.yes()

    def test_unmatched_repeat_is_an_error(self):
        result = parse_plantuml("@startuml\nrepeat\n:A;\n@enduml")
        assert any("unmatched 'repeat'" in d.message for d in result.errors())

    def test_arrow_label_applies_to_next_edge(self):
        result = parse_plantuml(
            "@startuml\nstart\n:A;\n-> later;\n:B;\nstop\n@enduml")
        graph = result.graph
        labeled = [e for e in graph.edges if e.label == EdgeLabel.other("later")]
        assert len(labeled) == 1

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
