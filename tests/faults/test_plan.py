"""Fault plans: determinism is the contract."""

from repro.faults import ExecutorCrash, FaultPlan, NicDegradation


class TestFaultPlan:
    def test_sorted_specs_orders_by_time(self):
        plan = (
            FaultPlan(seed=1)
            .add(NicDegradation(at_s=0.5))
            .add(ExecutorCrash(at_s=0.1))
            .add(NicDegradation(at_s=0.3, node_index=1))
        )
        times = [s.at_s for s in plan.sorted_specs()]
        assert times == sorted(times)
        # add() must not reorder the authored list itself.
        assert [s.at_s for s in plan.specs] == [0.5, 0.1, 0.3]
