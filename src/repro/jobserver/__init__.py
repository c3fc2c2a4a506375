"""Multi-tenant job server: continuous arrivals over a long-lived cluster.

The contention-study layer on top of :mod:`repro.spark.deploy` (DESIGN.md
§13): seeded arrival traces (:mod:`~repro.jobserver.arrivals`), pluggable
inter-job schedulers (:mod:`~repro.jobserver.schedulers`), the server
itself (:mod:`~repro.jobserver.server`) and the JCT/queueing-delay report
layer (:mod:`~repro.jobserver.report`).
"""

from repro.jobserver.arrivals import (
    DEFAULT_MIX,
    ArrivalTrace,
    JobRequest,
    poisson_trace,
)
from repro.jobserver.report import CellStats, JobServerReport, cell_stats
from repro.jobserver.schedulers import (
    SCHEDULERS,
    Admission,
    ClusterView,
    FairShareScheduler,
    FifoScheduler,
    InterJobScheduler,
    PackingScheduler,
    PendingJob,
    RunningJob,
    SchedulePlan,
    maxmin_allocation,
)
from repro.jobserver.server import (
    JobRecord,
    JobServer,
    JobServerResult,
    build_job_profile,
    run_trace,
)

__all__ = [
    "DEFAULT_MIX",
    "ArrivalTrace",
    "JobRequest",
    "poisson_trace",
    "CellStats",
    "JobServerReport",
    "cell_stats",
    "SCHEDULERS",
    "Admission",
    "ClusterView",
    "FairShareScheduler",
    "FifoScheduler",
    "InterJobScheduler",
    "PackingScheduler",
    "PendingJob",
    "RunningJob",
    "SchedulePlan",
    "maxmin_allocation",
    "JobRecord",
    "JobServer",
    "JobServerResult",
    "build_job_profile",
    "run_trace",
]
