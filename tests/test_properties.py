"""Property tests: every search witness survives a JSON round trip and still
verifies; brute enumeration marks exactly its non-unit loops as verified."""

import json
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from forbiddenq import cli
from forbiddenq.loops import (
    SearchConfig,
    brute_enumerate_loops,
    search_nonunit_loop,
    verify_witness,
    weight_squared,
)


@st.composite
def q_in_0_4(draw, max_den=30):
    b = draw(st.integers(1, max_den))
    return Fraction(draw(st.integers(1, 4 * b - 1)), b)


@settings(max_examples=60, deadline=None)
@given(q=q_in_0_4(), depth=st.integers(1, 5), window=st.integers(1, 3),
       budget=st.integers(1, 5_000))
def test_search_witness_verifies_after_json_round_trip(q, depth, window, budget):
    res = search_nonunit_loop(
        q, SearchConfig(max_depth=depth, window=window, node_budget=budget)
    )
    if res.witness is None:
        return
    assert res.witness.verified
    text = json.dumps(cli.witness_to_dict(res.witness))
    back = cli.witness_from_dict(json.loads(text))
    assert back == res.witness
    assert verify_witness(back)


@settings(max_examples=40, deadline=None)
@given(q=q_in_0_4(max_den=12), depth=st.integers(0, 4), bound=st.integers(0, 3))
def test_brute_enumeration_verifies_exactly_non_unit_loops(q, depth, bound):
    for w in brute_enumerate_loops(q, depth, bound):
        assert w.weight_squared == weight_squared(q, w.loop)
        assert w.verified == (w.weight_squared != 1)
