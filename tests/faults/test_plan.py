"""Fault plans and the seeded RNG substreams: determinism is the contract."""

from repro.faults import (
    ExecutorCrash,
    FaultPlan,
    MessageChaos,
    NicDegradation,
    SeededRng,
    derive_seed,
)


def plan_rng(seed):
    return SeededRng(derive_seed(seed, "faults", "plan"))


class TestSeededStreams:
    def test_derive_seed_is_stable(self):
        assert derive_seed(7, "faults", "plan") == derive_seed(7, "faults", "plan")

    def test_derive_seed_separates_substreams(self):
        assert derive_seed(7, "faults", "plan") != derive_seed(7, "faults", "chaos")
        assert derive_seed(7, "faults", "plan") != derive_seed(8, "faults", "plan")

    def test_same_seed_same_sequence(self):
        a = [plan_rng(42).random() for _ in range(5)]
        b = [plan_rng(42).random() for _ in range(5)]
        assert a == b

    def test_plan_and_chaos_streams_are_independent(self):
        # Drawing from one stream must not perturb the other.
        p1 = plan_rng(3)
        c1 = SeededRng(derive_seed(3, "faults", "chaos"))
        _ = [c1.random() for _ in range(100)]
        p2 = plan_rng(3)
        assert [p1.random() for _ in range(5)] == [p2.random() for _ in range(5)]


class TestFaultPlan:
    def test_random_same_seed_identical(self):
        a = FaultPlan.random(seed=11, n_workers=4, window_s=2.0, n_faults=5)
        b = FaultPlan.random(seed=11, n_workers=4, window_s=2.0, n_faults=5)
        assert a.specs == b.specs

    def test_random_different_seeds_differ(self):
        a = FaultPlan.random(seed=11, n_workers=4, window_s=2.0, n_faults=5)
        b = FaultPlan.random(seed=12, n_workers=4, window_s=2.0, n_faults=5)
        assert a.specs != b.specs

    def test_random_caps_crashes_at_one(self):
        for seed in range(20):
            plan = FaultPlan.random(seed=seed, n_workers=4, window_s=1.0, n_faults=8)
            crashes = [s for s in plan.specs if isinstance(s, ExecutorCrash)]
            assert len(crashes) <= 1

    def test_random_respects_allow_crashes(self):
        for seed in range(20):
            plan = FaultPlan.random(
                seed=seed, n_workers=4, window_s=1.0, n_faults=8, allow_crashes=False
            )
            assert not any(isinstance(s, ExecutorCrash) for s in plan.specs)

    def test_sorted_specs_orders_by_time(self):
        plan = (
            FaultPlan(seed=1)
            .add(NicDegradation(at_s=0.5))
            .add(ExecutorCrash(at_s=0.1))
            .add(MessageChaos(at_s=0.3, drop_p=0.1))
        )
        times = [s.at_s for s in plan.sorted_specs()]
        assert times == sorted(times)
        # add() must not reorder the authored list itself.
        assert [s.at_s for s in plan.specs] == [0.5, 0.1, 0.3]

    def test_describe_lists_every_fault(self):
        plan = (
            FaultPlan(seed=9, name="demo")
            .add(ExecutorCrash(at_s=0.1, exec_id=2))
            .add(NicDegradation(at_s=0.2, node_index=1, factor=4.0, duration_s=0.5))
        )
        text = plan.describe()
        assert "demo" in text and "seed 9" in text
        assert "executor 2" in text
        assert "node 1" in text and "x4" in text
