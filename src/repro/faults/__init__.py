"""repro.faults — fault injection & recovery for the simulated cluster.

The chaos engine for this reproduction: declarative fault plans
(:mod:`plan`), a simnet-level injector (:mod:`injector`), Spark-side
recovery semantics (:mod:`recovery`), a scenario harness (:mod:`chaos`),
and deterministic availability reports (:mod:`report`). The paper's Sec.
VI-A caveat — MPI's fault model is all-or-nothing unless ULFM-style
shrinking is assumed — becomes measurable here: identical fault plans,
four transports, very different blast radii.
"""

from repro.faults.chaos import ChaosScenario, make_chaos_profile, run_scenario
from repro.faults.injector import FaultInjector
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
from repro.faults.recovery import JobFailedError, ResilientScheduler
from repro.faults.report import AvailabilityReport, FaultEvent, render_matrix
from repro.util.rng import SeededRng, derive_seed

__all__ = [
    "AvailabilityReport",
    "ChaosScenario",
    "ExecutorCrash",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "JobFailedError",
    "MessageChaos",
    "NicDegradation",
    "NodeCrash",
    "Partition",
    "RankKill",
    "ResilientScheduler",
    "SeededRng",
    "derive_seed",
    "make_chaos_profile",
    "render_matrix",
    "run_scenario",
]
