"""The convert path's output bytes, pinned as digests.

A seeded corpus of random charts (unstructured ``rand_flow_graph`` charts
and PlantUML-shaped ``rand_structured_graph`` charts, with cue-bearing
texts and ids that need quoting or renaming) is rendered in all three
dialects, and each rendering, whole and with one line dropped, goes through
what ``flowsra convert`` and ``flowsra upgrade`` do: parse, validate, emit
in every dialect, recognize relations with the heuristic, emit the upgraded
chart in every dialect and list the triples. Every text along the way is
hashed, section by section; a change that speeds the path up must leave
each digest as it is.
"""

import hashlib
import random
from collections import Counter

from flowsra.emitting import EmitError, emit, emit_triples, emit_upgraded
from flowsra.ir import Edge, FlowGraph, Node, validate
from flowsra.parsing import Dialect, parse_text
from flowsra.relations import HeuristicRelationBackend, upgrade_graph

from gen import rand_flow_graph, rand_structured_graph

# texts that reach every rule of the recognizer's cascade, their near
# misses, and texts each dialect must quote, escape or collapse
CUE_TEXTS = [
    "Obtain the keys", "Get a bowl", "got it", "Acquires data", "gotten", "getter",
    "Select a tool", "uſe the knife", "Pick one", "Choosing wisely", "user", "useful",
    "İuse it", "Fruits", "Kid's Toys", "apples, pears and plums", "tea or coffee",
    "tools such as a saw", "For instance, a cat", "e.g. milk", "Heat causes steam",
    "Rain leads to floods", 'say "hi"', "a|b", "semi; colon", "back\\slash",
    "  padded  ", "%% not a comment", "two\nlines", "tab\there", "(paren) [bracket]",
    "ß", "Ω",
]
# node ids that DOT must quote and Mermaid must rename
ODD_IDS = ["node", "1a", "a b", 'q"uote', "back\\", "x-y", "é", "_ok", "graph", "n0"]

GRAPHS = 60
DIGESTS = {
    "parse": "6db45fd657e386da",
    "plain": "d6b51e6d56493290",
    "triples": "a37bd2b08c7dd540",
    "upgraded": "78aefd9911742865",
    "listing": "19dbfed15cc8db13",
}


def decorated(graph: FlowGraph, rng: random.Random) -> FlowGraph:
    """``graph`` with about a third of its texts drawn from ``CUE_TEXTS`` and
    a few ids from ``ODD_IDS``."""
    spare = [nid for nid in ODD_IDS if nid not in {n.id for n in graph.nodes}]
    rng.shuffle(spare)
    ids = {}
    for node in graph.nodes:
        ids[node.id] = spare.pop() if spare and rng.random() < 0.2 else node.id
    nodes = tuple(Node(ids[n.id], n.kind,
                       rng.choice(CUE_TEXTS) if n.text and rng.random() < 0.35 else n.text)
                  for n in graph.nodes)
    edges = tuple(Edge(ids[e.src], ids[e.dst], e.label) for e in graph.edges)
    return FlowGraph(nodes, edges, graph.title)


def corpus() -> list[str]:
    """Every chart of the corpus in every dialect that can express it, and
    each of those texts with one seeded line dropped."""
    texts = []
    for seed in range(GRAPHS):
        rng = random.Random(seed)
        base = rand_structured_graph(rng) if seed % 2 else rand_flow_graph(rng)
        graph = decorated(base, rng)
        for dialect in Dialect:
            try:
                text = emit(graph, dialect).text
            except EmitError:
                continue
            lines = text.splitlines(keepends=True)
            dropped = rng.randrange(1, len(lines))
            texts += [text, "".join(lines[:dropped] + lines[dropped + 1:])]
    return texts


def outcome(render) -> str:
    try:
        return render()
    except EmitError as exc:
        return f"EmitError: {exc}"


def convert_records() -> dict[str, list[str]]:
    records: dict[str, list[str]] = {name: [] for name in DIGESTS}
    for text in corpus():
        dialect, result = parse_text(text)
        violations = validate(result.graph)
        records["parse"].append("\n".join(
            [dialect.value] + [str(d) for d in result.diagnostics]
            + [str(v) for v in violations]))
        if violations:
            continue
        graph = result.graph
        records["plain"] += [outcome(lambda d=d: emit(graph, d).text) for d in Dialect]
        ug = upgrade_graph(graph, HeuristicRelationBackend(), dialect=dialect)
        records["triples"] += [f"{t.src}\0{t.relation.value}\0{t.dst}\0{t.rationale}"
                               for t in ug.triples]
        records["upgraded"] += [outcome(lambda d=d: emit_upgraded(ug, d).text)
                                for d in Dialect]
        records["listing"].append(emit_triples(ug))
    return records


def digest(texts: list[str]) -> str:
    return hashlib.sha256("\x1e".join(texts).encode("utf-8")).hexdigest()[:16]


def test_the_corpus_reaches_every_rule_and_both_outcomes():
    records = convert_records()
    rationales = Counter(record.split("\0")[3] for record in records["triples"])
    assert len(rationales) == 6, rationales
    assert any(r.startswith("EmitError") for r in records["plain"])
    assert any(r.startswith("EmitError") for r in records["upgraded"])
    assert any("error" in r for r in records["parse"])


def test_every_stage_emits_the_pinned_bytes():
    records = convert_records()
    measured = {name: digest(texts) for name, texts in records.items()}
    assert measured == DIGESTS, f"DIGESTS = {measured!r}"
