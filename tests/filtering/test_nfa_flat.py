"""Differential tests: flat SharedPathNFA vs the dict-based reference.

The flattened automaton (`repro.filtering.nfa`) must be observationally
identical to the reference implementation it replaced
(`tests/filtering/nfa_reference.py`): same configurations (as sets), same
accepted queries, same acceptance verdicts, on any query set and any
label sequence.  Hypothesis drives both machines in lockstep.

The second half pins the allocation discipline of the scratch-buffer
path: compiling happens exactly once per automaton, and steady-state
`move`/`epsilon_closure` never reallocate the scratch arrays.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.filtering.nfa import SharedPathNFA
from tests.filtering.nfa_reference import ReferenceSharedPathNFA
from repro.xpath.parser import parse_query
from tests.strategies import labels, queries

#: Event streams as flat label lists: each label is a start event pushed
#: onto an ever-deepening path.  Depth-first shapes are exercised by the
#: branchy variant below.
event_streams = st.lists(labels, min_size=0, max_size=10)

#: A branchy traversal: (depth-to-pop, label) pairs replayed against a
#: configuration stack, like a depth-first walk of a label trie.
branchy_streams = st.lists(
    st.tuples(st.integers(0, 3), labels), min_size=0, max_size=12
)


def build_both(query_list):
    flat = SharedPathNFA()
    reference = ReferenceSharedPathNFA()
    flat.add_queries(query_list)
    reference.add_queries(query_list)
    return flat.freeze(), reference.freeze()


class TestDifferential:
    @given(st.lists(queries(), min_size=1, max_size=6), event_streams)
    def test_linear_runs_agree(self, query_list, stream):
        flat, reference = build_both(query_list)
        flat_config = flat.initial_states()
        ref_config = reference.initial_states()
        assert set(flat_config) == set(ref_config)
        for tag in stream:
            flat_config = flat.move(flat_config, tag)
            ref_config = reference.move(ref_config, tag)
            assert set(flat_config) == set(ref_config)
            assert flat.accepted_queries(flat_config) == reference.accepted_queries(
                ref_config
            )
            assert flat.is_accepting(flat_config) == reference.is_accepting(ref_config)

    @given(st.lists(queries(), min_size=1, max_size=6), branchy_streams)
    def test_branchy_runs_agree(self, query_list, stream):
        """Tree-shaped traversals with backtracking agree too."""
        flat, reference = build_both(query_list)
        flat_stack = [flat.initial_states()]
        ref_stack = [reference.initial_states()]
        flat_matched = set()
        ref_matched = set()
        for pops, tag in stream:
            for _ in range(min(pops, len(flat_stack) - 1)):
                flat_stack.pop()
                ref_stack.pop()
            flat_config = flat.move(flat_stack[-1], tag)
            flat_matched.update(flat.accepted_queries(flat_config))
            flat_stack.append(flat_config)
            ref_config = reference.move(ref_stack[-1], tag)
            ref_matched.update(reference.accepted_queries(ref_config))
            ref_stack.append(ref_config)
            assert set(flat_stack[-1]) == set(ref_stack[-1])
        assert flat_matched == ref_matched

    @given(st.lists(queries(), min_size=1, max_size=6), event_streams)
    def test_epsilon_closure_agrees(self, query_list, stream):
        flat, reference = build_both(query_list)
        config = flat.initial_states()
        for tag in stream:
            config = flat.move(config, tag)
        assert set(flat.epsilon_closure(config)) == set(
            reference.epsilon_closure(frozenset(config))
        )

    @given(st.lists(queries(), min_size=1, max_size=6))
    def test_construction_shape_identical(self, query_list):
        """Same trie: state counts, registered queries (white-box)."""
        flat, reference = build_both(query_list)
        assert len(flat._states) == reference.state_count
        assert flat._queries.keys() == reference.queries().keys()


class TestConfigurationForm:
    def test_configurations_are_sorted_tuples(self):
        nfa = SharedPathNFA()
        nfa.add_queries([parse_query("//a"), parse_query("/a//b")])
        config = nfa.initial_states()
        assert isinstance(config, tuple)
        assert list(config) == sorted(set(config))
        config = nfa.move(config, "a")
        assert isinstance(config, tuple)
        assert list(config) == sorted(set(config))

    def test_dead_configuration_is_falsy_and_hashable(self):
        nfa = SharedPathNFA()
        nfa.add_query(0, parse_query("/a"))
        dead = nfa.move(nfa.initial_states(), "z")
        assert not dead
        assert hash(dead) == hash(())


class TestScratchAllocations:
    def test_compile_happens_once(self):
        nfa = SharedPathNFA()
        nfa.add_queries([parse_query("/a//b"), parse_query("//c/*")])
        assert nfa.scratch_allocations == 0  # compilation is lazy
        config = nfa.initial_states()
        assert nfa.scratch_allocations == 1
        for _ in range(50):
            config = nfa.move(config, "a")
            nfa.accepted_queries(config)
            nfa.epsilon_closure(config)
        assert nfa.scratch_allocations == 1  # steady state never reallocates

    def test_adding_queries_invalidates_compiled_form(self):
        nfa = SharedPathNFA()
        nfa.add_query(0, parse_query("/a"))
        nfa.initial_states()
        assert nfa.scratch_allocations == 1
        nfa.add_query(1, parse_query("//b"))
        nfa.initial_states()
        assert nfa.scratch_allocations == 2  # recompiled for the new query

    def test_move_allocates_no_sets(self):
        """The hot loop builds only the result tuple -- no set/frozenset."""
        import tracemalloc

        nfa = SharedPathNFA()
        nfa.add_queries(
            [parse_query(q) for q in ("//a/b", "/a//c", "//*/d", "/a/b/c")]
        )
        config = nfa.initial_states()
        stream = ["a", "b", "c", "d", "e"] * 40
        for tag in stream:  # warm every (state, label) pair first
            config = nfa.move(config, tag)
        tracemalloc.start()
        before = tracemalloc.take_snapshot()
        for tag in stream:
            config = nfa.move(config, tag)
        after = tracemalloc.take_snapshot()
        tracemalloc.stop()
        # Only small result tuples may remain live; the dict-based engine
        # leaked a frozenset per event plus per-move working sets.  Bound
        # the *net* new allocations attributable to this module.
        nfa_lines = [
            stat
            for stat in after.compare_to(before, "lineno")
            if stat.traceback and "nfa.py" in stat.traceback[0].filename
        ]
        leaked = sum(max(stat.size_diff, 0) for stat in nfa_lines)
        # one live config tuple (a few ints) is all that may remain
        assert leaked < 512, f"move() leaked {leaked} bytes across 200 events"
