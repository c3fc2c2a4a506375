"""Whole-run fences for the kernel: dispatch order, object lifetime, the
call budget per wire message and the dispatches by kind.

All drive the Fig-9 GroupByTest cell end to end (2 workers, the golden's
configuration, except where a property needs overlapping flows), because
the properties they pin are about what a real run leaves behind and in
which order it resumes its processes — not about one primitive in
isolation (those live in ``test_kernel.py`` and
``test_resources.py``).
"""

import gc
import hashlib
import heapq
import itertools
import json
import os
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.harness.experiments import _run_ohb
from repro.harness.parallel import OhbSpec
from repro.simnet import engine as engine_module
from repro.simnet.engine import SimEngine
from repro.simnet.events import AllOf, AnyOf, Condition, Event, Process, Timeout
from repro.simnet.fluid import Flow, FluidNetwork
from repro.simnet.sockets import SimSocket
from repro.util.units import GiB
from repro.workloads.ohb import GROUP_BY

# Length and sha256 of the "(sim time, process name)" resume sequence of
# the Fig-9 GroupByTest cell (2 workers, 28 GiB, fidelity 0.25, Frontera).
# Re-recorded when a store began handing its item to a waiting getter in
# line and the socket and MPI pipe pumps began taking a queued item in
# place: each such fold removes a pump resume or moves one within its
# instant, so no order-preserving filter of the old sequence reproduces
# the new one, while the committed figure rows and every pinned counter
# stayed byte-identical (DESIGN §10 rule 7, "A hand-off has no hop"). A
# kernel change that claims to preserve order must
# reproduce these; a change meant to move simulated schedules re-records
# them (``resume_digest`` is the recorder) in the same change that
# regenerates the goldens.
RESUME_DIGESTS = {
    "nio": (23234, "6068d10cd50d1c8998ae3d85f15dd34a0e4086e86b62e766d734f79882df2135"),
    "rdma": (23238, "70a1d4d5f4f43226d03fc061e2f2e82da83725bb149f2f52edd664721a28704b"),
    "mpi-basic": (27319, "1a2bf32dd24243990015bead7e8cd543f3f8f706d748fc81f83719a7b51360d9"),
    "mpi-opt": (32350, "3328d12a19752fc4cc666681c14e1cb69394554af8ed684852a739e5652e9c8c"),
    "mpi-coll": (483, "686a50445a32072164e08a87b2f304668c8207978add15b59698d03814c102ac"),
}


_RESULTS = Path(__file__).resolve().parents[2] / "results"


@pytest.mark.parametrize("link_rate", [1.0, 2.0])
def test_same_instant_order_keeps_the_committed_sortby_cell(link_rate):
    # This cell's fetch-wait and its 2x-NIC wall depend on the order of
    # events within one instant: folding the hop from a chunk future to
    # the fetch_shuffle park (DESIGN §10 rule 7) moved them (523.757 ->
    # 523.679 s, 12.0790498 -> 12.0790814 s) while every Fig-9 2-worker
    # cell stayed put. A kernel change that claims to keep order must keep
    # both, exactly, as the Fig 10 and what-if payloads commit them.
    spec = ("SortByTest", 4, 56 * GiB, "rdma")

    def committed(figure):
        payload = json.loads((_RESULTS / f"BENCH_{figure}.json").read_text())
        return next(
            c for c in payload["cells"]
            if (c["workload"], c["n_workers"], c["data_bytes"], c["transport"]) == spec
        )

    result = OhbSpec(*spec, 0.25, "Frontera", link_rate=link_rate).run().result
    if link_rate == 1.0:
        fig10 = committed("fig10_weak_scaling")
        assert result.total_seconds == fig10["total_seconds"]
        fetch_wait = result.metrics.total("spark.scheduler.fetch_wait_s")
        assert fetch_wait == fig10["metrics"]["fetch_wait_s"]
    else:
        truth = next(r for r in committed("whatif")["rows"] if r["knobs"] == "link_rate x2")
        assert result.total_seconds == truth["simulated_s"]


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


# The call budget per wire message (DESIGN §10 "Where the time went"), on
# the Fig-9 GroupByTest cell (2 workers, fidelity 0.25) at 2 GiB and at
# 8 GiB. A row holds each run's (wire messages, kernel dispatches), exact,
# and the ceiling on calls into ``src/repro`` per wire message that the
# 8 GiB run adds to the 2 GiB run. The difference drops the calls that do
# not grow with the data (cluster setup, one ``run_task`` per task, one
# OpenBlocks stream per source): they move a whole-run ratio by 6-14 %
# between the two sizes, while the added calls per added message agree
# with those of 8 -> 28 GiB to within 1-2 %. mpi-coll moves the same
# messages at any size, so its ceiling is per message of one run. A change
# that adds calls on a wire path raises the row in the same change and says
# why; one that removes some lowers it.
CALL_BUDGETS = {
    "nio": ((284, 2705), (954, 7953), 80.4),
    "rdma": ((284, 2705), (954, 7953), 80.6),
    "mpi-basic": ((542, 3192), (1882, 10366), 50.9),
    "mpi-opt": ((654, 3614), (2329, 10834), 45.0),
    "mpi-coll": ((36, 651), (36, 651), 154.3),
}
# The ceiling on each run's own calls into ``src/repro`` (2 GiB, 8 GiB):
# the measured count rounded up to the next hundred, plus one hundred. The
# marginal budget above can rise for a change that cuts calls at both
# sizes, if it cuts more at the smaller one; these fall with such a cut.
RUN_CALL_BUDGETS = {
    "nio": (25400, 79200),
    "rdma": (25300, 79300),
    "mpi-basic": (30800, 98800),
    "mpi-opt": (35300, 110500),
    "mpi-coll": (5700, 5700),
}

# Python 3.12 inlines these (PEP 709), so counting them would make the
# budget depend on the interpreter.
_COMPREHENSIONS = frozenset({"<listcomp>", "<dictcomp>", "<setcomp>"})
_REPRO = os.path.dirname(repro.__file__) + os.sep


def call_census(transport: str, data_bytes: int, monkeypatch) -> tuple[int, int, int]:
    """(wire messages, kernel dispatches, calls into repro) of one cell.

    A call is a frame entry the profiler reports, so every generator
    resume counts. Dataclass-generated ``__init__``s live in ``<string>``,
    not in a repro file, and are not counted either. The collector is off
    while it counts: a collection would close an earlier run's parked
    generators inside this one, and each close is a call.
    """
    engines = []
    init = SimEngine.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(SimEngine, "__init__", tracked)
    calls = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    gc.collect()
    gc.disable()
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        cell = _run_ohb(GROUP_BY, 2, data_bytes, transport, 0.25)
    finally:
        sys.setprofile(previous)
        gc.enable()
    monkeypatch.setattr(SimEngine, "__init__", init)
    repro_calls = sum(
        n for code, n in calls.items()
        if code.co_filename.startswith(_REPRO) and code.co_name not in _COMPREHENSIONS
    )
    messages = cell.result.metrics.total("simnet.link.*.tx_messages")
    dispatches = sum(env.events_processed for env in engines)
    return int(messages), dispatches, repro_calls


@pytest.mark.parametrize("transport", sorted(CALL_BUDGETS))
def test_wire_messages_keep_their_call_budget(transport, monkeypatch):
    small_at, large_at, budget = CALL_BUDGETS[transport]
    # Unprofiled first: what a process does once (imports, memo fills) must
    # not land in either count, whichever cell ran before in this process.
    _run_ohb(GROUP_BY, 2, 2 * GiB, transport, 0.25)
    (m2, d2, c2), (m8, d8, c8) = (
        call_census(transport, n * GiB, monkeypatch) for n in (2, 8)
    )
    assert ((m2, d2), (m8, d8)) == (small_at, large_at)
    per_message = (c8 - c2) / (m8 - m2) if m8 != m2 else c8 / m8
    assert per_message <= budget, f"{per_message:.2f} calls per wire message"
    ceiling_2, ceiling_8 = RUN_CALL_BUDGETS[transport]
    assert c2 <= ceiling_2 and c8 <= ceiling_8, f"{c2} and {c8} calls per run"


def dispatch_census(transport: str, data_bytes: int, monkeypatch) -> tuple[int, Counter]:
    """(wire messages, dispatches by kind) of the Fig-9 GroupBy cell.

    A dispatch's kind is the ``__qualname__`` of the first callback the
    run loop calls for it, or, when that callback resumes a process, of
    the process's generator function (``_Pipe._pump``,
    ``MPIProcess._rendezvous_match``); an event dispatched with no
    callback is ``(none)``. The run loop's ``heappop`` is wrapped for the
    cell; a cancelled timer it skips is not a dispatch and is not counted.
    """
    kinds = Counter()
    engines = []
    init = SimEngine.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        engines.append(self)

    def heappop(heap):
        entry = heapq.heappop(heap)
        event = entry[2]
        if not (event.__class__ is Timeout and event._dead):
            kinds[_kind(event.callbacks)] += 1
        return entry

    monkeypatch.setattr(SimEngine, "__init__", tracked)
    monkeypatch.setattr(
        engine_module,
        "heapq",
        types.SimpleNamespace(heappop=heappop, heapify=heapq.heapify),
    )
    cell = _run_ohb(GROUP_BY, 2, data_bytes, transport, 0.25)
    monkeypatch.setattr(SimEngine, "__init__", init)
    monkeypatch.setattr(engine_module, "heapq", heapq)
    assert sum(kinds.values()) == sum(env.events_processed for env in engines)
    return int(cell.result.metrics.total("simnet.link.*.tx_messages")), kinds


def _kind(callbacks) -> str:
    if not callbacks:
        return "(none)"
    cb = callbacks[0]
    owner = getattr(cb, "__self__", None)
    if isinstance(owner, Process) and cb.__name__ == "_resume":
        return owner.gen.__qualname__
    return getattr(cb, "__qualname__", type(cb).__qualname__)


# The MPI runtime's dispatches on the Fig-9 GroupByTest cell (2 workers,
# 2 GiB, fidelity 0.25), exact, by kind (``dispatch_census``); the wire
# messages are the ``CALL_BUDGETS`` row's. ``_on_send_overhead`` is one
# per MPI send, ``_on_eager_delay`` one per eager match, ``_on_send_end``
# one per send whose request someone holds (the control plane's; the
# transports' per-message sends hold none), and ``_Pipe._pump`` and
# ``_rendezvous_match`` are the resumes of the pipe pumps and of the
# rendezvous matches. A send and an eager match have no start hop (DESIGN
# §10 rule 7): ``_on_send_start`` and ``_on_eager_start`` appear on no
# transport. A pipe pump resumes only from a wire leg: it is handed an
# envelope inside the put, or takes a queued one in place.
MPI_DISPATCHES = {
    "mpi-basic": (542, {
        "MPIProcess._on_send_overhead": 310,
        "MPIProcess._on_send_end": 30,
        "MPIProcess._on_eager_delay": 198,
        "MPIProcess._rendezvous_match": 560,
        "_Pipe._pump": 318,
    }),
    "mpi-opt": (654, {
        "MPIProcess._on_send_overhead": 142,
        "MPIProcess._on_send_end": 30,
        "MPIProcess._on_eager_delay": 30,
        "MPIProcess._rendezvous_match": 560,
        "_Pipe._pump": 150,
    }),
    "mpi-coll": (36, {
        "MPIProcess._on_send_overhead": 32,
        "MPIProcess._on_send_done": 2,
        "MPIProcess._on_send_end": 32,
        "MPIProcess._on_eager_delay": 30,
        "MPIProcess._rendezvous_match": 10,
        "_Pipe._pump": 40,
    }),
}
_FOLDED = ("MPIProcess._on_send_start", "MPIProcess._on_eager_start")
# A watched store or probe bucket signals a park in line (DESIGN §10 rule
# 3), so no transport dispatches the park signal.
_PARK_SIGNAL = "Selector._on_park_signal"


@pytest.mark.parametrize("transport", sorted(CALL_BUDGETS))
def test_dispatches_by_kind(transport, monkeypatch):
    messages, kinds = dispatch_census(transport, 2 * GiB, monkeypatch)
    mpi = {
        kind: n for kind, n in kinds.items()
        if kind.startswith(("MPIProcess.", "_Pipe.", "MatchingEngine."))
    }
    table = "\n".join(
        f"{kind:<48} {n:>6} {n / messages:>8.3f}"
        for kind, n in sorted(kinds.items(), key=lambda kv: (-kv[1], kv[0]))
    )
    report = (
        f"{transport}: {messages} wire messages, {sum(kinds.values())} "
        f"dispatches\n{'kind':<48} {'count':>6} {'/message':>8}\n{table}"
    )
    assert not set(_FOLDED) & set(kinds), report
    assert _PARK_SIGNAL not in kinds, report
    assert (messages, mpi) == MPI_DISPATCHES.get(transport, (messages, {})), report
