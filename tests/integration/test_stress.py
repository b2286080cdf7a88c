"""Stress and failure-injection tests.

The verifiers must stay consistent under heavy concurrency and when
tasks fail mid-flight — an always-on production safety check cannot
corrupt its own state because the program it watches is buggy.
"""

import random
import threading

import pytest

from repro import TaskFailedError, TaskRuntime
from repro.armus.hybrid import HybridVerifier
from repro.core import make_policy
from repro.formal.tj_relation import TJOrderOracle


class TestConcurrentVerifierStress:
    @pytest.mark.parametrize("policy_name", ["TJ-GT", "TJ-JP", "TJ-SP", "TJ-OM"])
    def test_concurrent_forks_and_queries_match_oracle(self, policy_name):
        """Many threads fork chains off a shared root while others fire
        permission queries; afterwards every verdict must agree with the
        insert-after-parent oracle rebuilt from the final structure."""
        policy = make_policy(policy_name)
        root = policy.add_child(None)
        n_threads, per_thread = 6, 120
        # Pre-create the per-thread anchors sequentially (single forker
        # per parent, as the Section 5.1 contract requires).
        anchors = [policy.add_child(root) for _ in range(n_threads)]
        results: list[list] = [[] for _ in range(n_threads)]
        stop = threading.Event()

        def grower(i):
            node = anchors[i]
            for _ in range(per_thread):
                node = policy.add_child(node)
                results[i].append(node)

        def querier():
            rng = random.Random(99)
            pool = anchors + [root]
            while not stop.is_set():
                a, b = rng.choice(pool), rng.choice(pool)
                policy.permits(a, b)  # must never crash mid-mutation

        threads = [threading.Thread(target=grower, args=(i,)) for i in range(n_threads)]
        q = threading.Thread(target=querier)
        q.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        q.join()

        # Rebuild the oracle: root, anchors in order, then each chain.
        oracle = TJOrderOracle()
        oracle.init("root")
        vertex_name = {id(root): "root"}
        for i, anchor in enumerate(anchors):
            name = f"a{i}"
            oracle.fork("root", name)
            vertex_name[id(anchor)] = name
            parent = name
            for j, node in enumerate(results[i]):
                child = f"a{i}.{j}"
                oracle.fork(parent, child)
                vertex_name[id(node)] = child
                parent = child

        rng = random.Random(5)
        all_vertices = [root] + anchors + [v for chain in results for v in chain]
        for _ in range(2000):
            x, y = rng.choice(all_vertices), rng.choice(all_vertices)
            expected = x is not y and oracle.less(vertex_name[id(x)], vertex_name[id(y)])
            assert policy.permits(x, y) == expected

    def test_hybrid_verifier_concurrent_begin_end(self):
        """Hammer begin/end join cycles from many threads; counters stay
        exact and the waits-for graph drains to empty."""
        hybrid = HybridVerifier(make_policy("TJ-SP"))
        root = hybrid.verifier.on_init()
        children = [hybrid.verifier.on_fork(root) for _ in range(8)]
        iterations = 300

        def worker(i):
            me = f"task-{i}"
            for k in range(iterations):
                # joins on a terminated 'older sibling': vacuous blocking
                blocked = hybrid.begin_join(
                    me, f"done-{i}-{k}", children[i], children[(i + 1) % 8],
                    joinee_done=(k % 2 == 0),
                )
                if blocked:
                    hybrid.end_join(me, f"done-{i}-{k}")
                hybrid.on_join_completed(children[i], children[(i + 1) % 8])

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert hybrid.verifier.stats.joins_checked == 8 * iterations
        assert len(hybrid.detector.graph) == 0


class TestFailureInjection:
    def test_failing_tasks_do_not_corrupt_verification(self):
        """Random task failures: joins still verified, failures surface
        as TaskFailedError, and subsequent valid joins keep working."""
        rt = TaskRuntime(policy="TJ-SP")
        rng = random.Random(0)

        def worker(i, fail):
            if fail:
                raise ValueError(f"injected-{i}")
            return i

        def main():
            futs = [
                (i, rt.fork(worker, i, rng.random() < 0.3), )
                for i in range(60)
            ]
            ok = failed = 0
            for i, fut in futs:
                try:
                    assert fut.join() == i
                    ok += 1
                except TaskFailedError as exc:
                    assert isinstance(exc.__cause__, ValueError)
                    failed += 1
            return ok, failed

        ok, failed = rt.run(main)
        assert ok + failed == 60 and failed > 0
        assert rt.verifier.stats.joins_checked == 60
        assert rt.detector.stats.false_positives == 0

    def test_failed_joinee_still_transfers_kj_knowledge(self):
        """KJ-learn happens at join completion even when the joinee
        failed — its forks were real and its knowledge is valid."""
        rt = TaskRuntime(policy="KJ-SS")
        grand = {}

        def child():
            grand["g"] = rt.fork(lambda: 7)
            raise ValueError("child failed after forking")

        def main():
            c = rt.fork(child)
            with pytest.raises(TaskFailedError):
                c.join()
            # the learn from the failed join lets us join g without
            # tripping the fallback
            return grand["g"].join()

        assert rt.run(main) == 7
        assert rt.detector.stats.false_positives == 0

    def test_deep_failure_chains(self):
        rt = TaskRuntime(policy="TJ-SP")

        def recurse(depth):
            if depth == 0:
                raise RuntimeError("bottom")
            return rt.fork(recurse, depth - 1).join()

        def main():
            with pytest.raises(TaskFailedError):
                rt.fork(recurse, 10).join()
            return "survived"

        assert rt.run(main) == "survived"
