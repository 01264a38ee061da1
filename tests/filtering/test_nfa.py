"""Unit tests for the shared-path NFA construction and moves."""

from __future__ import annotations

import pytest

from repro.filtering.nfa import SharedPathNFA
from repro.xpath.parser import parse_query


def nfa_for(*texts: str) -> SharedPathNFA:
    nfa = SharedPathNFA()
    for index, text in enumerate(texts):
        nfa.add_query(index, parse_query(text))
    return nfa


def state_count(nfa: SharedPathNFA) -> int:
    """States of the construction trie (white-box: sharing is internal)."""
    return len(nfa._states)


def run(nfa: SharedPathNFA, labels):
    states = nfa.initial_states()
    for label in labels:
        states = nfa.move(states, label)
    return states


class TestConstruction:
    def test_prefix_sharing(self):
        # /a/b and /a/c share the state for /a.
        shared = nfa_for("/a/b", "/a/c")
        separate = nfa_for("/a/b")
        # shared adds only one extra state for the 'c' branch.
        assert state_count(shared) == state_count(separate) + 1

    def test_identical_queries_share_all_states(self):
        nfa = nfa_for("/a/b", "/a/b")
        assert state_count(nfa) == state_count(nfa_for("/a/b"))
        assert nfa.accepted_queries(run(nfa, ["a", "b"])) == {0, 1}

    def test_duplicate_query_id_rejected(self):
        nfa = SharedPathNFA()
        nfa.add_query(1, parse_query("/a"))
        with pytest.raises(ValueError):
            nfa.add_query(1, parse_query("/b"))

    def test_frozen_rejects_additions(self):
        nfa = nfa_for("/a")
        nfa.freeze()
        with pytest.raises(RuntimeError):
            nfa.add_query(99, parse_query("/b"))

    def test_add_queries_assigns_consecutive_ids(self):
        nfa = SharedPathNFA()
        ids = nfa.add_queries([parse_query("/a"), parse_query("/b")])
        assert ids == [0, 1]
        more = nfa.add_queries([parse_query("/c")])
        assert more == [2]

    def test_descendant_creates_self_loop_state(self):
        plain = state_count(nfa_for("/a/b"))
        with_desc = state_count(nfa_for("/a//b"))
        assert with_desc == plain + 1  # the loop state


class TestMoves:
    def test_simple_chain_accepts(self):
        nfa = nfa_for("/a/b")
        states = run(nfa, ["a", "b"])
        assert nfa.accepted_queries(states) == {0}

    def test_wrong_label_dies(self):
        nfa = nfa_for("/a/b")
        assert not run(nfa, ["a", "c"])  # dead configuration is falsy

    def test_wildcard_transition(self):
        nfa = nfa_for("/a/*")
        assert nfa.accepted_queries(run(nfa, ["a", "zzz"])) == {0}

    def test_descendant_skips(self):
        nfa = nfa_for("/a//c")
        assert nfa.accepted_queries(run(nfa, ["a", "x", "y", "c"])) == {0}

    def test_descendant_matches_direct_child(self):
        nfa = nfa_for("/a//c")
        assert nfa.accepted_queries(run(nfa, ["a", "c"])) == {0}

    def test_leading_descendant(self):
        nfa = nfa_for("//c")
        assert nfa.accepted_queries(run(nfa, ["a", "b", "c"])) == {0}
        assert nfa.accepted_queries(run(nfa, ["c"])) == {0}

    def test_multiple_queries_disambiguated(self):
        nfa = nfa_for("/a/b", "/a/c", "/a//c")
        assert nfa.accepted_queries(run(nfa, ["a", "b"])) == {0}
        assert nfa.accepted_queries(run(nfa, ["a", "c"])) == {1, 2}
        assert nfa.accepted_queries(run(nfa, ["a", "b", "c"])) == {2}

    def test_is_accepting(self):
        nfa = nfa_for("/a")
        assert nfa.is_accepting(run(nfa, ["a"]))
        assert not nfa.is_accepting(run(nfa, ["b"]))

    def test_epsilon_closure_includes_descendant_states(self):
        nfa = nfa_for("//a")
        initial = nfa.initial_states()
        assert len(initial) == 2  # start + its loop state
