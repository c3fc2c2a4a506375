"""Whole-run fences for the kernel: dispatch order and object lifetime.

All drive the Fig-9 GroupByTest cell end to end (2 workers, the golden's
configuration, except where a property needs overlapping flows), because
the properties they pin are about what a real run leaves behind and in
which order it resumes its processes — not about one primitive in
isolation (those live in ``test_kernel.py`` and
``test_resources.py``).
"""

import gc
import hashlib
import itertools
from collections import Counter

import pytest

from repro.harness.experiments import _run_ohb
from repro.simnet.engine import SimEngine
from repro.simnet.events import AllOf, AnyOf, Condition, Event, Process
from repro.simnet.fluid import Flow, FluidNetwork
from repro.simnet.sockets import SimSocket
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY

# Length and sha256 of the "(sim time, process name)" resume sequence of
# the Fig-9 GroupByTest cell (2 workers, 28 GiB, fidelity 0.25, Frontera).
# nio and rdma were recorded at commit 69e1880, the last tree whose kernel
# scheduled every event, observed or not. The three MPI transports were
# re-recorded when per-message MPI sends and eager matches stopped being
# processes named ``isend:`` / ``match:`` (DESIGN §10 rule 7): with the
# resumes of those processes dropped, the sequence is identical before and
# after that change on all five transports (EXPERIMENTS.md has the
# filtering script and the filtered values). A kernel change
# that claims to preserve order must reproduce these; a change meant to
# move simulated schedules re-records them (``resume_digest`` is the
# recorder) in the same PR that regenerates the goldens.
RESUME_DIGESTS = {
    "nio": (24912, "b1681a71d0fe8909beb02c71c6cef839b614c9478d61a88e31358191fef178a4"),
    "rdma": (24912, "341fb303089e1d59eb9d29c65bc5a480c83b6d4ed0124a1661c43893d0fc7a05"),
    "mpi-basic": (27479, "603139f3716a2691098a4db85d415edfc7b1b6a5c4a13367e6ad944afd089a81"),
    "mpi-opt": (32593, "7c32ed285e7ffd465b113540a261e2861239e9f11d7ae2b991ac69b210b7dcf3"),
    "mpi-coll": (491, "4630f9107c61b8e8a65cb7d8e817353c9bbfaffb463e1dd4b043f6772a1517a0"),
}


def resume_digest(transport: str, monkeypatch) -> tuple[int, str]:
    """Run the cell with every ``Process._resume`` logged: (count, sha256)."""
    digest = hashlib.sha256()
    count = itertools.count()
    resume = Process._resume

    def logged(proc, event):
        next(count)
        digest.update(f"{proc.env.now.hex()} {proc.name}\n".encode())
        resume(proc, event)

    monkeypatch.setattr(Process, "_resume", logged)
    # Socket pump names carry a process-global socket counter.
    monkeypatch.setattr(SimSocket, "_ids", itertools.count(1))
    _run_ohb(GROUP_BY, 2, 28 * GiB, transport, 0.25)
    return next(count), digest.hexdigest()


@pytest.mark.parametrize("transport", sorted(RESUME_DIGESTS))
def test_resume_order_matches_recording(transport, monkeypatch):
    assert resume_digest(transport, monkeypatch) == RESUME_DIGESTS[transport]


def _census(transport: str, data_bytes: int) -> dict[str, int]:
    """Kernel objects still alive after one cell, collector off: whatever
    reference counting alone did not free."""
    gc.collect()  # the previous run's parked processes are real cycles
    cell = _run_ohb(GROUP_BY, 2, data_bytes, transport, 0.25)
    del cell
    alive = Counter(type(obj) for obj in gc.get_objects())
    return {cls.__name__: alive[cls] for cls in (Flow, AnyOf, AllOf, Event)}


@pytest.mark.parametrize("transport", sorted(RESUME_DIGESTS))
def test_run_leaves_nothing_behind_that_grows_with_its_length(transport):
    # What survives a run is what is parked when it ends (one pending
    # select per event loop, the waiters of idle keys): a function of the
    # cluster, not of how much data went through it. Four times the data
    # is four times the flows, selects and wake-ups; none may be left.
    gc.disable()
    try:
        small = _census(transport, 2 * GiB)
        large = _census(transport, 8 * GiB)
    finally:
        gc.enable()
    assert small == large
    assert small["Flow"] == 0


@pytest.mark.parametrize("transport", sorted(RESUME_DIGESTS))
def test_per_message_waits_build_no_conditions(transport, monkeypatch):
    # A wait over long-lived sources (a select over its keys, a reduce
    # task over its in-flight chunks) parks on one plain event that the
    # sources' persistent callbacks decide. What is left is one AllOf per
    # stage joining its tasks: a function of the job's shape, where the
    # per-call AnyOf used to scale with the messages (4,607 on this nio
    # cell, 3,090 on mpi-opt, 1,512 on mpi-basic).
    built = []
    init = Condition.__init__

    def counted(self, env, events):
        built.append(type(self))
        init(self, env, events)

    monkeypatch.setattr(Condition, "__init__", counted)
    counts = []
    for data_bytes in (2 * GiB, 8 * GiB):
        built.clear()
        _run_ohb(GROUP_BY, 2, data_bytes, transport, 0.25)
        counts.append(Counter(built))
    assert counts[0] == counts[1] == {AllOf: 3}


@pytest.mark.parametrize("transport", sorted(RESUME_DIGESTS))
def test_fluid_keeps_completions_out_of_the_kernel_heap(transport, monkeypatch):
    # Every re-rate files a new completion entry per flow it touched, but
    # only the earliest live entry goes to the kernel (DESIGN §10 rule 5):
    # at most one kernel timer per re-rate or completion, however many
    # flows each re-rate re-armed. Four workers, not two: at two no two
    # flows ever overlap, so every re-rate re-arms one flow.
    nets, pushed = [], Counter()
    init = FluidNetwork.__init__

    def tracked(self, env):
        init(self, env)
        nets.append(self)

    def counting(name):
        original = getattr(SimEngine, name)

        def wrapper(self, *args, **kwargs):
            timer = original(self, *args, **kwargs)
            pushed[isinstance(timer._value, Flow)] += 1
            return timer

        return wrapper

    monkeypatch.setattr(FluidNetwork, "__init__", tracked)
    monkeypatch.setattr(SimEngine, "timeout", counting("timeout"))
    monkeypatch.setattr(SimEngine, "timeout_at", counting("timeout_at"))
    _run_ohb(GROUP_BY, 4, 8 * GiB, transport, 0.25)
    rerates = sum(net._c_rerate_calls.value for net in nets)
    rearmed = sum(net._c_rerate_flows.value for net in nets)
    completions = sum(net.completed for net in nets)
    assert completions > 0
    assert pushed[True] <= rerates + completions
    # mpi-coll's synchronous rounds never overlap two flows; on the other
    # transports re-rates re-arm ~4 flows each, and pushes must not follow.
    assert pushed[True] < rearmed or rearmed == rerates


@pytest.mark.parametrize("transport", sorted(RESUME_DIGESTS))
def test_mpi_messages_start_no_processes(transport, monkeypatch):
    # A per-message MPI step is a callback chain, not a process (DESIGN
    # §10 rule 7): no send starts one, and a match starts one only for a
    # rendezvous, whose CTS and bulk legs are wire_path generators.
    started = Counter()
    init = Process.__init__

    def counted(self, env, gen, name=None):
        init(self, env, gen, name)
        started[self.name.partition(":")[0]] += 1

    monkeypatch.setattr(Process, "__init__", counted)
    for data_bytes in (2 * GiB, 8 * GiB):
        started.clear()
        cell = _run_ohb(GROUP_BY, 2, data_bytes, transport, 0.25)
        rendezvous = cell.result.metrics.value("mpi.world.sends_rendezvous")
        assert started["isend"] == 0
        assert started["match"] == rendezvous
