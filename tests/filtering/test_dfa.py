"""Unit and property tests for the lazily determinised query DFA."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.filtering.dfa import LazyQueryDFA
from repro.xpath.parser import parse_query
from tests.filtering.viable_prefix import is_viable_prefix
from tests.strategies import label_paths, queries


class TestLazyQueryDFA:
    def test_accepts_path(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b"), parse_query("/a//c")])
        def accepts_path(path):
            return dfa.is_accepting(dfa.run(path))

        assert accepts_path(("a", "b"))
        assert accepts_path(("a", "x", "c"))
        assert not accepts_path(("a",))
        assert not accepts_path(("b",))

    def test_dead_state_is_not_live(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        dead = dfa.run(("z",))
        assert not dfa.is_live(dead)
        assert dfa.is_live(dfa.run(("a",)))

    def test_descendant_states_stay_live(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a//b")])
        assert dfa.is_live(dfa.run(("a", "x", "y", "z")))

    def test_accepted_queries(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a"), parse_query("//a")])
        state = dfa.run(("a",))
        assert dfa.accepted_queries(state) == {0, 1}

    def test_transitions_memoised(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        dfa.run(("a", "b"))
        first = dfa.materialised_transitions
        dfa.run(("a", "b"))
        assert dfa.materialised_transitions == first  # cache hit, no growth

    def test_dead_short_circuit(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b")])
        state = dfa.run(("z", "a", "b", "c"))
        assert not state  # dead configuration is falsy

    @given(st.lists(queries(), min_size=1, max_size=4), label_paths)
    def test_matches_query_semantics(self, query_list, path):
        """DFA acceptance == direct matches_path, for every query."""
        dfa = LazyQueryDFA.from_queries(query_list)
        state = dfa.run(path)
        accepted = dfa.accepted_queries(state)
        expected = {
            index
            for index, query in enumerate(query_list)
            if query.matches_path(path)
        }
        assert accepted == expected

    @given(st.lists(queries(), min_size=1, max_size=3), label_paths)
    def test_liveness_matches_viable_prefix(self, query_list, path):
        """A state is live iff the path is a viable prefix of some query."""
        dfa = LazyQueryDFA.from_queries(query_list)
        live = dfa.is_live(dfa.run(path))
        viable = any(is_viable_prefix(query, path) for query in query_list)
        assert live == viable

    @given(st.lists(queries(), min_size=1, max_size=4), label_paths)
    def test_query_masks_are_each_querys_own_answers(self, query_list, path):
        """Bit q of the live mask is query q's viable prefix, bit q of the
        accepting mask its match -- the set's walk is every query's."""
        dfa = LazyQueryDFA.from_queries(query_list)
        live, accepting = dfa.masks(dfa.run(path))
        for query_id, query in enumerate(query_list):
            alone = LazyQueryDFA.from_queries([query])
            assert bool(live >> query_id & 1) == alone.is_live(alone.run(path))
            assert bool(accepting >> query_id & 1) == query.matches_path(path)
        assert live >> len(query_list) == accepting >> len(query_list) == 0


class TestMemo:
    """Rows and query masks are memoised per state for the DFA's life
    (the index search reads them directly)."""

    def test_row_holds_the_stepped_transitions_of_its_state(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a/b"), parse_query("//b")])
        after_a = dfa.step(dfa.start, "a")
        after_b = dfa.step(dfa.start, "b")
        assert after_a != after_b
        assert dfa.row(dfa.start) == {"a": after_a, "b": after_b}
        assert dfa.row(after_a) == {}  # nothing stepped from there yet
        target = dfa.step(after_a, "b")
        assert dfa.row(after_a) == {"b": target}
        assert dfa.row(after_a) is dfa.row(after_a)
        assert dfa.row(after_b) == {}
        assert dfa.materialised_transitions == 3

    def test_dead_transitions_are_memoised_too(self):
        dfa = LazyQueryDFA.from_queries([parse_query("/a")])
        assert dfa.step(dfa.start, "z") == ()
        assert dfa.row(dfa.start) == {"z": ()}
        dfa.step(dfa.start, "z")
        assert dfa.materialised_transitions == 1

    def test_accept_flag_asks_the_nfa_once_per_state(self, monkeypatch):
        """One memo answers masks and accept flags alike."""
        dfa = LazyQueryDFA.from_queries([parse_query("/a"), parse_query("/a/b")])
        asked = []
        real = dfa.nfa.query_masks
        monkeypatch.setattr(
            dfa.nfa, "query_masks", lambda s: asked.append(s) or real(s)
        )
        states = [dfa.start, dfa.run(("a",)), dfa.run(("a", "b")), dfa.run(("z",))]
        for _ in range(3):
            flags = [dfa.is_accepting(state) for state in states]
            masks = [dfa.masks(state) for state in states]
        assert flags == [False, True, True, False]
        assert masks == [(0b11, 0), (0b11, 0b01), (0b10, 0b10), (0, 0)]
        assert sorted(asked) == sorted(set(states))

    @given(
        st.lists(queries(), min_size=1, max_size=3),
        st.lists(label_paths, min_size=1, max_size=6),
    )
    def test_warm_memo_agrees_with_the_nfa(self, query_list, paths):
        """After any warm-up, every memoised answer is the NFA's own."""
        dfa = LazyQueryDFA.from_queries(query_list)
        for path in paths:
            dfa.run(path)
        nfa = dfa.nfa
        for path in paths:
            state = dfa.start
            for label in path:
                assert dfa.is_accepting(state) == nfa.is_accepting(state)
                assert dfa.step(state, label) == nfa.move(state, label)
                state = dfa.step(state, label)
            assert dfa.is_accepting(state) == nfa.is_accepting(state)
