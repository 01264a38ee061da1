"""The paper's claims must hold on every built-in data set.

Section 4.1 cross-checks NITF against NASA ("the findings are pretty
much the same"); this suite extends the check to the DBLP-like set and
pins the claims that must be DTD-invariant: pruning never grows the
index, the two-tier layout is smaller, the two-tier protocol wins on
index look-up, and every client terminates with its exact result set.
"""

from __future__ import annotations

import pytest

from repro.sim.config import small_setup
from tests.sim.validating import ValidatingSimulation

DTDS = ("nitf", "nasa", "dblp")


@pytest.fixture(scope="module", params=DTDS)
def run(request):
    return request.param, ValidatingSimulation(small_setup(dtd=request.param)).run()


class TestInvariantClaimsAcrossDTDs:
    def test_run_drains(self, run):
        dtd, result = run
        assert result.completed, dtd

    def test_pruning_never_grows(self, run):
        dtd, result = run
        for cycle in result.cycles:
            assert cycle.pruning.bytes_after <= cycle.pruning.bytes_before, dtd

    def test_two_tier_layout_smaller(self, run):
        dtd, result = run
        for cycle in result.cycles:
            assert cycle.pci_first_tier_bytes < cycle.pruning.bytes_after, dtd

    def test_two_tier_protocol_wins_lookup(self, run):
        dtd, result = run
        assert result.mean_index_lookup_bytes(
            "two-tier"
        ) < result.mean_index_lookup_bytes("one-tier"), dtd

    def test_offset_list_is_small(self, run):
        """L_O stays a sliver of the first tier -- the Equation-1 regime."""
        dtd, result = run
        mean_lo = result.mean_offset_list_bytes()
        mean_li = result.mean_first_tier_bytes()
        assert mean_lo < mean_li, dtd

    def test_index_is_small_fraction_of_data(self, run):
        dtd, result = run
        ratio = result.index_to_data_ratio(result.mean_two_tier_bytes())
        assert 0 < ratio < 0.05, (dtd, ratio)

    def test_access_time_protocol_invariant(self, run):
        """Same schedule, same documents: completion cannot depend on the
        index layout."""
        dtd, result = run
        one = result.mean_access_bytes("one-tier")
        two = result.mean_access_bytes("two-tier")
        assert one == pytest.approx(two), dtd


class TestStructuralContrast:
    """The DTDs were chosen as structural extremes; verify they are."""

    @pytest.fixture(scope="class")
    def stats(self):
        from repro.sim.simulation import build_collection
        from repro.xmlkit.stats import collection_stats

        out = {}
        for dtd in DTDS:
            docs = build_collection(small_setup(dtd=dtd))
            out[dtd] = collection_stats(docs)
        return out

    def test_nitf_is_deepest(self, stats):
        assert stats["nitf"].max_depth > stats["dblp"].max_depth

    def test_dblp_is_flattest(self, stats):
        assert stats["dblp"].max_depth <= 4

    def test_nitf_has_most_paths(self, stats):
        assert stats["nitf"].distinct_paths > stats["dblp"].distinct_paths
        assert stats["nitf"].distinct_paths > stats["nasa"].distinct_paths
