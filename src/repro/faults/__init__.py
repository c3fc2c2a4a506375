"""repro.faults — fault injection & recovery for the simulated cluster.

The chaos engine for this reproduction: declarative fault plans
(:mod:`plan`) of two kinds, an executor crash and a NIC degradation; a
simnet-level injector (:mod:`injector`) whose one failure notice is "a
node failed"; Spark-side recovery semantics (:mod:`recovery`); a scenario
harness (:mod:`chaos`); and deterministic availability reports
(:mod:`report`). The paper's Sec. VI-A caveat — MPI's fault model is
all-or-nothing unless ULFM-style shrinking is assumed — becomes
measurable here: identical fault plans, four transports, very different
blast radii.
"""

from repro.faults.chaos import ChaosScenario, make_chaos_profile, run_scenario
from repro.faults.injector import FaultInjector
from repro.faults.plan import ExecutorCrash, FaultPlan, FaultSpec, NicDegradation
from repro.faults.recovery import JobFailedError, ResilientScheduler
from repro.faults.report import AvailabilityReport, FaultEvent, render_matrix

__all__ = [
    "AvailabilityReport",
    "ChaosScenario",
    "ExecutorCrash",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "JobFailedError",
    "NicDegradation",
    "ResilientScheduler",
    "make_chaos_profile",
    "render_matrix",
    "run_scenario",
]
