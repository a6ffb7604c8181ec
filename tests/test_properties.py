"""Property tests over generated canonical ipomsets of up to five events.

Refinement is a partial order whose witnesses are valid, ``glue`` is
associative wherever both bracketings are defined and has identities on
both sides, both compositions of languages distribute over ``union`` on
either side, and the JSON document of an ipomset reads back as the same
value.  Any JSON object over the document field names either parses or
raises a ``ValueError``, and ``serialize`` writes any JSON value as
``json.dumps(value, indent=2, sort_keys=True)`` does.  The settings come
from the profile loaded in ``conftest.py``.
"""

from __future__ import annotations

import json
from itertools import combinations

from hypothesis import given
from hypothesis import strategies as st

from hdalang import (
    InternalOrderCycle,
    Ipomset,
    Language,
    glue,
    identity,
    is_equal,
    normalize,
    par_compose,
    seq_compose,
    subsumes,
    union,
)
from hdalang.formats import ipomset_from_doc, ipomset_to_doc, parse_document, serialize
from oracles import is_witness, naive_closure

MAX_EVENTS = 5


@st.composite
def ipomsets(
    draw: st.DrawFn,
    size: int | None = None,
    alphabet: str = "ab",
    source_labels: tuple[str, ...] | None = None,
) -> Ipomset:
    """A canonical ipomset built with ``Ipomset(...)``.

    Precedence is the closure of a drawn set of index-increasing pairs.
    With ``source_labels``, the sources are that many drawn events, kept
    minimal by drawing no pair into them, and carry those labels in order.
    """
    k = len(source_labels) if source_labels is not None else 0
    n = size if size is not None else draw(st.integers(k, MAX_EVENTS))
    labels = [draw(st.sampled_from(alphabet)) for _ in range(n)]
    sources: list[int] = []
    if source_labels is not None:
        sources = sorted(draw(st.permutations(range(n)))[:k])
        for event, label in zip(sources, source_labels):
            labels[event] = label
    allowed = [(i, j) for i, j in combinations(range(n), 2) if j not in sources]
    chosen = draw(st.lists(st.sampled_from(allowed), unique=True)) if allowed else []
    precedence = naive_closure(frozenset(chosen))
    minimal = [e for e in range(n) if not any(b == e for _, b in precedence)]
    maximal = [e for e in range(n) if not any(a == e for a, _ in precedence)]
    if source_labels is None:
        sources = [e for e in minimal if draw(st.booleans())]
    targets = [e for e in maximal if draw(st.booleans())]
    return Ipomset(tuple(labels), precedence, frozenset(sources), frozenset(targets))


@st.composite
def same_size_triples(draw: st.DrawFn) -> tuple[Ipomset, Ipomset, Ipomset]:
    """Three ipomsets of one size and one letter, so refinement is common."""
    n = draw(st.integers(0, 4))
    return tuple(draw(ipomsets(size=n, alphabet="a")) for _ in range(3))


@st.composite
def glue_chains(draw: st.DrawFn) -> tuple[Ipomset, Ipomset, Ipomset]:
    """``a``, ``b``, ``c`` where each one's sources match the last one's targets."""
    a = draw(ipomsets())
    b = draw(ipomsets(source_labels=_target_labels(a)))
    c = draw(ipomsets(source_labels=_target_labels(b)))
    return a, b, c


@st.composite
def languages(draw: st.DrawFn) -> Language:
    """A language of one to three generators of at most three events."""
    small = st.integers(0, 3).flatmap(lambda n: ipomsets(size=n))
    return normalize(draw(st.lists(small, min_size=1, max_size=3)))


_KINDS = st.sampled_from(("ipomset", "language", "precubical", "hda", "span"))
_KEYS = st.sampled_from(
    (
        "type", "events", "precedence", "eventOrder", "sources", "targets",
        "generators", "eventBound", "cells", "id", "word", "faces", "start",
        "accept", "apex", "left", "right", "leftMap", "rightMap", "0,1", "1,1",
    )
)
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 3)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(("", "a", "v", "0,1"))
    | _KINDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=12,
)

# Any JSON value: big and negative ints, infinite and NaN floats, and text
# with quotes, backslashes, control characters and non-ASCII code points.
_TEXT = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\u00e9\u2028\U0001f600'))
_ANY_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from((-1, 2**64, -(2**70)))
    | st.floats()
    | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=20,
)


@st.composite
def documents(draw: st.DrawFn) -> dict:
    """A JSON object over the document field names, ``type`` a kind or any value."""
    doc = draw(st.dictionaries(_KEYS, _JSON, max_size=5))
    doc["type"] = draw(_KINDS | _JSON)
    return doc


def _target_labels(p: Ipomset) -> tuple[str, ...]:
    return tuple(p.labels[t] for t in sorted(p.targets))


def _glue_or_none(p: Ipomset | None, q: Ipomset | None) -> Ipomset | None:
    if p is None or q is None:
        return None
    try:
        return glue(p, q)
    except InternalOrderCycle:
        return None


class TestRefinementOrder:
    @given(ipomsets())
    def test_reflexive(self, p):
        assert subsumes(p, p) == tuple(range(p.size))

    @given(same_size_triples())
    def test_witnesses_are_valid(self, triple):
        for p in triple:
            for q in triple:
                witness = subsumes(p, q)
                assert witness is None or is_witness(p, q, witness)

    @given(same_size_triples())
    def test_antisymmetric(self, triple):
        p, q, _ = triple
        if subsumes(p, q) is not None and subsumes(q, p) is not None:
            assert p == q

    @given(same_size_triples())
    def test_transitive(self, triple):
        p, q, r = triple
        if subsumes(p, q) is not None and subsumes(q, r) is not None:
            assert subsumes(p, r) is not None


class TestGlueLaws:
    @given(glue_chains())
    def test_associative_where_both_sides_are_defined(self, chain):
        a, b, c = chain
        left = _glue_or_none(_glue_or_none(a, b), c)
        right = _glue_or_none(a, _glue_or_none(b, c))
        if left is not None and right is not None:
            assert left == right

    @given(ipomsets())
    def test_identities_are_units_on_both_sides(self, p):
        before = identity([p.labels[s] for s in sorted(p.sources)])
        after = identity(_target_labels(p))
        assert glue(before, p) == p
        assert glue(p, after) == p


class TestDistributivity:
    @given(languages(), languages(), languages())
    def test_par_compose_distributes_over_union_on_the_right(self, a, b, c):
        left = par_compose(union(a, b), c)
        assert is_equal(left, union(par_compose(a, c), par_compose(b, c)))

    @given(languages(), languages(), languages())
    def test_par_compose_distributes_over_union_on_the_left(self, a, b, c):
        left = par_compose(c, union(a, b))
        assert is_equal(left, union(par_compose(c, a), par_compose(c, b)))

    @given(languages(), languages(), languages())
    def test_seq_compose_distributes_over_union_on_the_right(self, a, b, c):
        left = seq_compose(union(a, b), c)
        assert is_equal(left, union(seq_compose(a, c), seq_compose(b, c)))

    @given(languages(), languages(), languages())
    def test_seq_compose_distributes_over_union_on_the_left(self, a, b, c):
        left = seq_compose(c, union(a, b))
        assert is_equal(left, union(seq_compose(c, a), seq_compose(c, b)))


class TestDocuments:
    @given(ipomsets())
    def test_round_trip(self, p):
        assert ipomset_from_doc(ipomset_to_doc(p)) == p

    @given(_ANY_JSON)
    def test_serialize_is_json_dumps(self, value):
        assert serialize(value) == json.dumps(value, indent=2, sort_keys=True) + "\n"

    @given(documents())
    def test_malformed_documents_raise_only_value_errors(self, doc):
        try:
            parse_document(json.dumps(doc))
        except ValueError:
            pass
