"""Pluggable inter-job schedulers for the multi-tenant job server.

A scheduler sees an immutable :class:`ClusterView` (queue + running set +
slot inventory) and returns a :class:`SchedulePlan` (who to admit, with
what concurrency grant, optionally re-capping running jobs). The server
applies the plan; schedulers never touch simulation state directly, which
is what makes them swappable.

Three built-ins mirror the classic inter-job policies:

* :class:`FifoScheduler` — strict arrival order, head-of-line blocking.
* :class:`FairShareScheduler` — max-min (water-filling) slot shares,
  re-capped on every arrival/completion.
* :class:`PackingScheduler` — grants *whole executors* (best-fit subset)
  so tenants never share an executor's task slots; backfills behind a
  blocked head job.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class PendingJob:
    """A submitted-but-not-started application, as the scheduler sees it."""

    app_id: int
    workload: str
    submit_s: float
    parallelism: int  # requested concurrent-task slots


@dataclass(frozen=True)
class RunningJob:
    """An admitted application currently executing."""

    app_id: int
    parallelism: int  # original request
    granted: int  # current concurrency grant (gate capacity or subset slots)
    executor_ids: tuple[int, ...] | None = None  # None = runs on all executors


@dataclass(frozen=True)
class ClusterView:
    """Immutable scheduler-facing snapshot of the cluster."""

    now: float
    executor_slots: tuple[tuple[int, int], ...]  # (exec_id, task slots)
    pending: tuple[PendingJob, ...]  # arrival order
    running: tuple[RunningJob, ...]

    @property
    def total_slots(self) -> int:
        return sum(s for _, s in self.executor_slots)

    @property
    def granted_slots(self) -> int:
        return sum(r.granted for r in self.running)

    @property
    def free_slots(self) -> int:
        return self.total_slots - self.granted_slots

    def free_executors(self) -> tuple[tuple[int, int], ...]:
        """Executors not reserved by any running job (packing inventory)."""
        taken: set[int] = set()
        for r in self.running:
            if r.executor_ids is not None:
                taken.update(r.executor_ids)
        return tuple((e, s) for e, s in self.executor_slots if e not in taken)


@dataclass(frozen=True)
class Admission:
    """Start one pending application with the given grant."""

    app_id: int
    slots: int  # concurrency grant (SlotGate capacity)
    executor_ids: tuple[int, ...] | None = None  # packing: dedicated subset


@dataclass(frozen=True)
class SchedulePlan:
    """The scheduler's decision at one decision point."""

    admit: tuple[Admission, ...] = ()
    recap: tuple[tuple[int, int], ...] = ()  # (app_id, new grant) for running


class InterJobScheduler:
    """Interface: map a :class:`ClusterView` to a :class:`SchedulePlan`.

    ``plan`` is called at every decision point (job arrival, job
    completion) and must be a pure function of the view — no hidden
    clock or RNG state — so replays are deterministic.
    """

    name = "abstract"

    def plan(self, view: ClusterView) -> SchedulePlan:
        raise NotImplementedError


class FifoScheduler(InterJobScheduler):
    """Strict arrival-order admission with head-of-line blocking.

    The head job starts once enough free slots cover its requested
    parallelism; jobs behind it wait even if they would fit (that is the
    policy's defining pathology, and what fair-share/packing fix).
    """

    name = "fifo"

    def plan(self, view: ClusterView) -> SchedulePlan:
        free = view.free_slots
        admissions: list[Admission] = []
        for job in view.pending:
            want = min(job.parallelism, view.total_slots)
            if want > free:
                break  # head-of-line: never skip ahead
            admissions.append(Admission(app_id=job.app_id, slots=want))
            free -= want
        return SchedulePlan(admit=tuple(admissions))


def maxmin_allocation(requests: list[int], capacity: int) -> list[int]:
    """Max-min fair (water-filling) integer allocation.

    Each requester gets ``min(request, fair share)``; capacity freed by
    small requests is redistributed to the still-unsatisfied, largest
    requests first by repeated water-filling. Leftover slots that no
    request wants stay free. Ties in the final single-slot remainder go to
    earlier requesters (stable, deterministic).
    """
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    n = len(requests)
    alloc = [0] * n
    remaining = capacity
    unsat = [i for i in range(n) if requests[i] > 0]
    while unsat and remaining >= len(unsat):
        share = remaining // len(unsat)
        progressed = False
        for i in list(unsat):
            give = min(share, requests[i] - alloc[i])
            if give > 0:
                alloc[i] += give
                remaining -= give
                progressed = True
            if alloc[i] >= requests[i]:
                unsat.remove(i)
        if not progressed:
            break
    # Distribute an integer remainder one slot at a time, earliest first.
    for i in unsat:
        if remaining <= 0:
            break
        alloc[i] += 1
        remaining -= 1
    return alloc


class FairShareScheduler(InterJobScheduler):
    """Max-min fair slot shares across all admitted applications.

    Admits pending jobs (arrival order) while every admitted job can still
    hold at least one slot, then water-fills the whole slot pool over the
    running set. Shares shrink as tenants arrive and grow back as they
    finish — the server applies the ``recap`` entries to each job's
    :class:`~repro.simnet.resources.SlotGate`, which never preempts
    in-flight tasks (caps tighten as tasks drain).
    """

    name = "fair"

    def plan(self, view: ClusterView) -> SchedulePlan:
        total = view.total_slots
        admitted: list[PendingJob] = []
        for job in view.pending:
            if len(view.running) + len(admitted) + 1 > total:
                break  # below 1 slot per job: stop admitting
            admitted.append(job)
        members: list[tuple[int, int]] = [
            (r.app_id, r.parallelism) for r in view.running
        ] + [(j.app_id, min(j.parallelism, total)) for j in admitted]
        alloc = maxmin_allocation([req for _, req in members], total)
        shares = {app_id: a for (app_id, _), a in zip(members, alloc)}
        admissions = tuple(
            Admission(app_id=j.app_id, slots=max(1, shares[j.app_id]))
            for j in admitted
        )
        recaps = tuple(
            (r.app_id, max(1, shares[r.app_id]))
            for r in view.running
            if shares[r.app_id] != r.granted
        )
        return SchedulePlan(admit=admissions, recap=recaps)


class PackingScheduler(InterJobScheduler):
    """Best-fit whole-executor packing with backfill.

    Each admitted job gets a dedicated executor subset whose summed task
    slots cover its requested parallelism; executors are never shared, so
    no tenant can oversubscribe another's slots (shuffle locality also
    stays within the subset). Subsets are chosen best-fit: the feasible
    combination with the least slot waste, smallest executor count as the
    tie-break. If the head job cannot fit, later jobs may backfill onto
    the remaining free executors.
    """

    name = "pack"

    def __init__(self, max_subset: int = 8) -> None:
        self.max_subset = max_subset

    def plan(self, view: ClusterView) -> SchedulePlan:
        free = list(view.free_executors())
        admissions: list[Admission] = []
        for job in view.pending:
            want = min(job.parallelism, view.total_slots)
            subset = self._best_fit(free, want)
            if subset is None:
                continue  # backfill: try the next pending job
            admissions.append(
                Admission(
                    app_id=job.app_id,
                    slots=sum(s for _, s in subset),
                    executor_ids=tuple(e for e, _ in subset),
                )
            )
            chosen = {e for e, _ in subset}
            free = [(e, s) for e, s in free if e not in chosen]
        return SchedulePlan(admit=tuple(admissions))

    def _best_fit(
        self, free: list[tuple[int, int]], want: int
    ) -> list[tuple[int, int]] | None:
        """Smallest-waste executor subset with >= ``want`` summed slots."""
        if sum(s for _, s in free) < want:
            return None
        best: list[tuple[int, int]] | None = None
        best_key: tuple[int, int] | None = None
        # Greedy seed-and-grow: anchor on each executor (largest first),
        # then add the largest remaining until the request is covered.
        # Executor counts are small (<= tens), so this stays cheap while
        # finding tight subsets in practice.
        order = sorted(free, key=lambda es: (-es[1], es[0]))
        for start in range(len(order)):
            subset: list[tuple[int, int]] = []
            got = 0
            for e, s in order[start:]:
                if got >= want or len(subset) >= self.max_subset:
                    break
                subset.append((e, s))
                got += s
            if got < want:
                continue
            key = (got - want, len(subset))
            if best_key is None or key < best_key:
                best, best_key = subset, key
        if best is None:
            return None
        return sorted(best, key=lambda es: es[0])


@dataclass
class SchedulerRegistry:
    """Name → factory map so benchmarks/CLI can select by string."""

    factories: dict = field(
        default_factory=lambda: {
            "fifo": FifoScheduler,
            "fair": FairShareScheduler,
            "pack": PackingScheduler,
        }
    )

    def create(self, name: str) -> InterJobScheduler:
        try:
            return self.factories[name]()
        except KeyError:
            raise KeyError(
                f"unknown scheduler {name!r}; known: {sorted(self.factories)}"
            ) from None


SCHEDULERS = SchedulerRegistry()
