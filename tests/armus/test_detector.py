"""Unit tests for the Armus cycle-detecting avoidance protocol."""

import pytest

from repro.armus.detector import ArmusDetector
from repro.errors import DeadlockAvoidedError


class TestBasicProtocol:
    def test_permitted_join_registers_edge(self):
        d = ArmusDetector()
        d.block("a", "b", flagged=False)
        assert d.graph.edges() == [("a", "b")]
        d.unblock("a", "b")
        assert len(d.graph) == 0

    def test_flagged_join_counts_false_positive(self):
        d = ArmusDetector()
        d.block("a", "b", flagged=True)
        assert d.stats.false_positives == 1
        assert d.stats.cycle_checks == 1
        assert d.live_forced_edges == 1
        d.unblock("a", "b")
        assert d.live_forced_edges == 0

    def test_two_cycle_avoided(self):
        d = ArmusDetector()
        d.block("a", "b", flagged=True)
        with pytest.raises(DeadlockAvoidedError) as exc_info:
            d.block("b", "a", flagged=True)
        assert d.stats.deadlocks_avoided == 1
        assert set(exc_info.value.cycle) == {"a", "b"}
        # the refused edge was not registered:
        assert d.graph.edges() == [("a", "b")]

    def test_long_cycle_avoided(self):
        d = ArmusDetector()
        d.block("a", "b", flagged=False)
        d.block("b", "c", flagged=False)
        d.block("c", "d", flagged=True)
        with pytest.raises(DeadlockAvoidedError):
            d.block("d", "a", flagged=True)

    def test_non_cycle_flagged_join_proceeds(self):
        d = ArmusDetector()
        d.block("a", "b", flagged=False)
        d.block("c", "b", flagged=True)  # shares the joinee: no cycle
        assert d.stats.false_positives == 1
        assert d.stats.deadlocks_avoided == 0


class TestPermittedJoinChecking:
    def test_no_cycle_check_while_no_forced_edges(self):
        """The provably-safe fast path: all-permitted graphs are acyclic."""
        d = ArmusDetector()
        d.block("a", "b", flagged=False)
        d.block("b", "c", flagged=False)
        assert d.stats.cycle_checks == 0

    def test_permitted_joins_checked_once_forced_edge_live(self):
        d = ArmusDetector()
        d.block("a", "b", flagged=True)
        checks = d.stats.cycle_checks
        d.block("c", "d", flagged=False)
        assert d.stats.cycle_checks == checks + 1

    def test_check_resumes_skipping_after_forced_edge_clears(self):
        d = ArmusDetector()
        d.block("a", "b", flagged=True)
        d.unblock("a", "b")
        checks = d.stats.cycle_checks
        d.block("c", "d", flagged=False)
        assert d.stats.cycle_checks == checks

    def test_permitted_join_closing_cycle_through_forced_edge_is_refused(self):
        """The soundness scenario from the module docstring: a policy-
        permitted join must not silently complete a cycle whose other
        edges were admitted as false positives."""
        d = ArmusDetector()
        # forced (policy-flagged, admitted) edges: c -> a and b -> c
        d.block("c", "a", flagged=True)
        d.block("b", "c", flagged=True)
        # now the *permitted* join a -> b would close a -> b -> c -> a
        with pytest.raises(DeadlockAvoidedError):
            d.block("a", "b", flagged=False)
        assert d.stats.deadlocks_avoided == 1


class TestVacuousFalsePositives:
    def test_count_false_positive_touches_stats_only(self):
        d = ArmusDetector()
        d.count_false_positive()
        d.count_false_positive()
        assert d.stats.false_positives == 2
        # no edge, no cycle check, no forced-edge bookkeeping
        assert len(d.graph) == 0
        assert d.stats.cycle_checks == 0
        assert d.live_forced_edges == 0

    def test_hybrid_terminated_joinee_uses_the_public_counter(self):
        """A flagged join whose joinee already terminated never blocks,
        but the false positive is still recorded — through the public
        API, not by reaching into the detector's lock."""
        from repro.armus.hybrid import HybridVerifier
        from repro.core.policy import POLICY_REGISTRY

        hybrid = HybridVerifier(POLICY_REGISTRY["TJ-SP"]())
        root = hybrid.verifier.on_init()
        child = hybrid.verifier.on_fork(root)
        # older sibling joining a younger one: TJ flags it
        younger = hybrid.verifier.on_fork(root)
        blocked = hybrid.begin_join("child", "younger", child, younger, joinee_done=True)
        assert blocked is False
        assert hybrid.detector.stats.false_positives == 1
        assert len(hybrid.detector.graph) == 0
        assert hybrid.detector.live_forced_edges == 0
