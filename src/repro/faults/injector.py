"""The fault injector: executes a :class:`~repro.faults.plan.FaultPlan`.

The injector touches exactly one surface — the simnet layer's
:class:`~repro.simnet.topology.LinkState` and the cluster's per-message
``fault_filter`` hook. Everything above (TCP retransmission, MPI rank
death, Netty channel teardown, Spark task retry) reacts through its own
subscription to that state, so the blast radius of each fault is an
*emergent* property of the protocol stack under test, not something the
injector scripts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from repro.faults.plan import (
    ExecutorCrash,
    FaultPlan,
    FaultSpec,
    MessageChaos,
    NicDegradation,
    NodeCrash,
    Partition,
    RankKill,
)
from repro.util.rng import SeededRng, derive_seed

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.report import AvailabilityReport
    from repro.mpi.runtime import MPIWorld
    from repro.simnet.topology import SimCluster, SimNode
    from repro.spark.deploy import SimExecutor


class FaultInjector:
    """Arms a fault plan against one simulated cluster."""

    def __init__(
        self,
        cluster: "SimCluster",
        mpi_world: "MPIWorld | None" = None,
        executors: "list[SimExecutor] | None" = None,
        report: "AvailabilityReport | None" = None,
    ) -> None:
        self.cluster = cluster
        self.env = cluster.env
        self.mpi_world = mpi_world
        self.executors = executors or []
        self.report = report
        self.plan: FaultPlan | None = None
        self.fired: list[FaultSpec] = []
        self._chaos_rng = SeededRng(derive_seed(0, "faults", "chaos"))
        self._active_chaos: list[MessageChaos] = []
        self._armed = False

    def install(self, plan: FaultPlan) -> "FaultInjector":
        self.plan = plan
        self._chaos_rng = SeededRng(derive_seed(plan.seed, "faults", "chaos"))
        return self

    def arm(self) -> None:
        """Start the countdowns, anchored at the current simulated time.

        Call this at the moment the plan's relative times should start
        running (e.g. when the shuffle-read stage begins).
        """
        if self.plan is None:
            raise RuntimeError("install() a FaultPlan before arming")
        if self._armed:
            raise RuntimeError("injector already armed")
        for spec in self.plan.specs:
            if isinstance(spec, ExecutorCrash) and not (
                0 <= spec.exec_id < len(self.executors)
            ):
                raise ValueError(
                    f"ExecutorCrash names executor {spec.exec_id}, but the "
                    f"cluster has {len(self.executors)} executors"
                )
        self._armed = True
        for i, spec in enumerate(self.plan.sorted_specs()):
            self.env.process(self._countdown(spec), name=f"fault-{i}")

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
        elif isinstance(spec, NodeCrash):
            self.cluster.fail_node(spec.node_index)
        elif isinstance(spec, NicDegradation):
            node = self.cluster.node(spec.node_index)
            self.cluster.link_state.degrade(node, spec.factor)
            if spec.duration_s is not None:
                self.env.process(
                    self._restore_later(node, spec.duration_s), name="nic-restore"
                )
        elif isinstance(spec, Partition):
            self.cluster.link_state.partition(spec.group_a, spec.group_b)
            if spec.duration_s is not None:
                self.env.process(
                    self._heal_later(spec.duration_s), name="partition-heal"
                )
        elif isinstance(spec, MessageChaos):
            self._active_chaos.append(spec)
            if self.cluster.fault_filter is None:
                self.cluster.fault_filter = self._fault_filter
            if spec.duration_s is not None:
                self.env.process(
                    self._end_chaos_later(spec, spec.duration_s), name="chaos-end"
                )
        elif isinstance(spec, RankKill):
            if self.mpi_world is None:
                self._record("skipped", "RankKill on a non-MPI transport")
            else:
                self.mpi_world.kill_process(spec.gid, reason="injected rank kill")
        else:  # pragma: no cover - defensive
            raise TypeError(f"unknown fault spec {spec!r}")

    def _restore_later(self, node: "SimNode", after_s: float) -> Generator:
        yield self.env.timeout(after_s)
        self.cluster.link_state.restore(node)
        self._record("NicRestored", f"node {node.index} NIC back to full rate")

    def _heal_later(self, after_s: float) -> Generator:
        yield self.env.timeout(after_s)
        self.cluster.link_state.heal_partitions()
        self._record("Healed", "partitions healed")

    def _end_chaos_later(self, spec: MessageChaos, after_s: float) -> Generator:
        yield self.env.timeout(after_s)
        self._active_chaos.remove(spec)
        # Note ``==`` not ``is``: each ``self._fault_filter`` access builds a
        # fresh bound-method object, so identity would never match.
        if not self._active_chaos and self.cluster.fault_filter == self._fault_filter:
            self.cluster.fault_filter = None
        self._record("ChaosEnded", "message chaos window closed")

    # -- the per-message gremlin -------------------------------------------
    def _fault_filter(
        self, src: "SimNode", dst: "SimNode", nbytes: int, model: Any
    ) -> tuple[str, float] | None:
        for spec in self._active_chaos:
            if nbytes < spec.min_bytes:
                continue
            # One roll per hazard, in severity order, all from the seeded
            # chaos stream — identical seeds replay identical carnage.
            if spec.drop_p > 0 and self._chaos_rng.random() < spec.drop_p:
                return ("drop", 0.0)
            if spec.corrupt_p > 0 and self._chaos_rng.random() < spec.corrupt_p:
                return ("corrupt", 0.0)
            if spec.delay_p > 0 and self._chaos_rng.random() < spec.delay_p:
                return ("delay", spec.delay_s)
        return None
