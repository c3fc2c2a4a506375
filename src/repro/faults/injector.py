"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

The injector touches exactly one surface below Spark: the simnet layer's
:class:`~repro.simnet.topology.LinkState` (a node fails, a NIC degrades
or recovers). Everything above (socket resets, MPI rank death, Netty
channel teardown, Spark task retry) reacts through its own subscription
to the one node-failure notice, so the blast radius of each fault is an
*emergent* property of the protocol stack under test, not something the
injector scripts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator

from repro.faults.plan import ExecutorCrash, FaultPlan, FaultSpec, NicDegradation

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.report import AvailabilityReport
    from repro.simnet.topology import SimCluster, SimNode
    from repro.spark.deploy import SimExecutor


class FaultInjector:
    """Arms a fault plan against one simulated cluster."""

    def __init__(
        self,
        cluster: "SimCluster",
        executors: "list[SimExecutor] | None" = None,
        report: "AvailabilityReport | None" = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.executors = executors or []
        self.report = report
        self.plan: FaultPlan | None = None
        self.fired: list[FaultSpec] = []
        self._armed = False

    def install(self, plan: FaultPlan) -> "FaultInjector":
        self.plan = plan
        return self

    def arm(self) -> None:
        """Start the countdowns, anchored at the current simulated time.

        Call this at the moment the plan's relative times should start
        running (e.g. when the shuffle-read stage begins). Every spec is
        checked against the cluster first, so a bad plan fails here and
        not in the middle of the run.
        """
        if self.plan is None:
            raise RuntimeError("install() a FaultPlan before arming")
        if self._armed:
            raise RuntimeError("injector already armed")
        for spec in self.plan.specs:
            self._check(spec)
        self._armed = True
        for i, spec in enumerate(self.plan.sorted_specs()):
            self.env.process(self._countdown(spec), name=f"fault-{i}")

    def _check(self, spec: FaultSpec) -> None:
        if isinstance(spec, ExecutorCrash):
            if not 0 <= spec.exec_id < len(self.executors):
                raise ValueError(
                    f"ExecutorCrash names executor {spec.exec_id}, but the "
                    f"cluster has {len(self.executors)} executors"
                )
        elif isinstance(spec, NicDegradation):
            if not 0 <= spec.node_index < len(self.cluster):
                raise ValueError(
                    f"NicDegradation names node {spec.node_index}, but the "
                    f"cluster has {len(self.cluster)} nodes"
                )
            if spec.factor < 1.0:
                raise ValueError(
                    f"NicDegradation factor must be >= 1, got {spec.factor}"
                )
        else:
            raise TypeError(f"unknown fault spec {spec!r}")

    # -- firing -------------------------------------------------------------
    def _countdown(self, spec: FaultSpec) -> Generator:
        if spec.at_s > 0:
            yield self.env.timeout(spec.at_s)
        self._fire(spec)

    def _record(self, kind: str, detail: str) -> None:
        if self.report is not None:
            self.report.record(self.env.now, kind, detail)
        self.env.causal.event("fault.inject", None, kind=kind, detail=detail)

    def _fire(self, spec: FaultSpec) -> None:
        self.fired.append(spec)
        self._record(type(spec).__name__, spec.describe())
        if isinstance(spec, ExecutorCrash):
            ex = self.executors[spec.exec_id]
            ex.alive = False
            self.cluster.fail_node(ex.node)
        else:
            node = self.cluster.node(spec.node_index)
            self.cluster.link_state.degrade(node, spec.factor)
            if spec.duration_s is not None:
                self.env.process(
                    self._restore_later(node, spec.duration_s), name="nic-restore"
                )

    def _restore_later(self, node: "SimNode", after_s: float) -> Generator:
        yield self.env.timeout(after_s)
        self.cluster.link_state.restore(node)
        self._record("NicRestored", f"node {node.index} NIC back to full rate")
