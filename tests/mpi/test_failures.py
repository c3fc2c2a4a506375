"""Failure semantics of the per-message runtime steps, at exact sim times.

Each test pins *when* and *with what* one send or receive completes when
the world changes under it: a peer dying during the send overhead, a
world abort before the envelope is routed, a rendezvous send that must
wait for CTS plus bulk, an abort during an eager receive's delay, a
receive whose request somebody else already failed, and a receive posted
after its peer died. Times are compared with ``==``: they come from the
same model arithmetic the runtime does, or from a reference run of the
same cell without the fault.
"""

from repro.mpi import MPIWorld, RankSpec
from repro.mpi.envelope import RTS_BYTES
from repro.mpi.errors import RankDeadError, WorldAbortedError
from repro.simnet import IB_HDR, SimCluster, SimEngine, mpi_over
from repro.util.units import KiB, MiB

EAGER = 1 * KiB
RENDEZVOUS = 8 * MiB


def make_world(fault_mode="abort", start_time=0.0):
    env = SimEngine(start_time=start_time)
    cluster = SimCluster(env, IB_HDR, n_nodes=3, cores_per_node=4)
    world = MPIWorld(env, cluster, mpi_over(IB_HDR), fault_mode=fault_mode)
    return env, cluster, world


def launch(world, mains):
    """One rank per main, rank i on node i."""
    world.launch([RankSpec(main=m, node=i) for i, m in enumerate(mains)])
    world.env.run()


def idle(proc):
    yield proc.env.timeout(1.0)


def dies_at(t):
    """A rank that crashes itself at sim time ``t``."""

    def main(proc):
        yield proc.env.timeout(t)
        proc.world.kill_process(proc.gid, reason="test")

    return main


def isend_outcome(fault_mode, victim_rank):
    """Rank 0 isends EAGER bytes to rank 1 while ``victim_rank`` dies
    halfway through the send overhead: (sim time, exception) of the wait."""
    _, _, world = make_world(fault_mode)
    overhead = world.model.sender_cpu_time(EAGER)
    out = {}

    def sender(proc):
        req = proc.comm_world.isend("x", dest=1, nbytes=EAGER)
        try:
            yield from req.wait()
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            out["outcome"] = (proc.env.now, exc)

    mains = [sender, idle, idle]
    mains[victim_rank] = dies_at(overhead / 2)
    launch(world, mains)
    return overhead, out["outcome"]


def test_isend_fails_when_peer_dies_during_overhead():
    overhead, (t, exc) = isend_outcome("shrink", victim_rank=1)
    assert t == overhead
    assert type(exc) is RankDeadError
    assert "peer" in str(exc)


def test_isend_fails_when_world_aborts_before_route():
    overhead, (t, exc) = isend_outcome("abort", victim_rank=2)
    assert t == overhead
    assert type(exc) is WorldAbortedError


def test_ignored_failed_isend_does_not_stop_the_run():
    # Nobody waits on the request: its failure is dropped, the run ends.
    _, _, world = make_world("shrink")
    overhead = world.model.sender_cpu_time(EAGER)
    reqs = []

    def sender(proc):
        reqs.append(proc.comm_world.isend("x", dest=1, nbytes=EAGER))
        yield proc.env.timeout(1.0)

    launch(world, [sender, dies_at(overhead / 2), idle])
    assert world.env.now == 1.0
    assert type(reqs[0].event.value) is RankDeadError


def cts_plus_bulk(start, nbytes):
    """Sim time at which CTS (node 1 -> 0) then bulk (0 -> 1) finish when
    started at ``start`` on an idle copy of the cluster."""
    env, cluster, world = make_world(start_time=start)
    n0, n1 = cluster.node(0), cluster.node(1)

    def legs():
        yield from cluster.wire_path(n1, n0, RTS_BYTES, world.model)
        yield from cluster.wire_path(n0, n1, nbytes, world.model)

    env.process(legs())
    env.run()
    return env.now


def test_rendezvous_isend_completes_after_cts_and_bulk():
    _, _, world = make_world()
    post_at = 1.0
    times = {}

    def sender(proc):
        req = proc.comm_world.isend("big", dest=1, nbytes=RENDEZVOUS)
        yield from req.wait()
        times["send"] = proc.env.now

    def receiver(proc):
        yield proc.env.timeout(post_at)  # the RTS waits unexpected
        yield from proc.comm_world.recv(source=0, tag=0)
        times["recv"] = proc.env.now

    launch(world, [sender, receiver, idle])
    assert times["send"] == cts_plus_bulk(post_at, RENDEZVOUS)
    assert times["recv"] == times["send"] + world.model.receiver_cpu_time(RENDEZVOUS)


def eager_receive(fault_mode, during_delay=None):
    """Rank 1 pre-posts a receive of EAGER bytes from rank 0.

    ``during_delay(world, req)`` runs halfway through the receive delay
    (located by a first, undisturbed run). Returns (end time of the
    undisturbed run's receive, this run's (sim time, outcome), request).
    """

    def run(t_act):
        _, _, world = make_world(fault_mode)
        delay = world.model.receiver_cpu_time(EAGER)
        out = {}
        reqs = []

        def sender(proc):
            yield from proc.comm_world.send("x", dest=1, nbytes=EAGER)

        def receiver(proc):
            req = proc.comm_world.irecv(source=0, tag=0)
            reqs.append(req)
            try:
                value = yield from req.wait()
            except Exception as exc:  # noqa: BLE001 - the outcome under test
                value = exc
            out["outcome"] = (proc.env.now, value)

        def actor(proc):
            if t_act is not None:
                yield proc.env.timeout(t_act - delay / 2)
                during_delay(world, reqs[0])
            yield proc.env.timeout(0)

        launch(world, [sender, receiver, actor])
        return out["outcome"], reqs[0]

    (t_done, value), _ = run(None)
    assert value == "x"
    outcome, req = run(t_done)
    return t_done, outcome, req


def test_eager_receive_fails_when_world_aborts_during_delay():
    def abort(world, req):
        world.kill_process(2, reason="test")

    t_done, (t, exc), req = eager_receive("abort", abort)
    assert t == t_done
    assert type(exc) is WorldAbortedError
    assert "during recv" in str(exc)


def test_receive_already_failed_by_a_sweep_is_left_alone():
    # What the abort / shrink sweeps do to a request: fail its event. One
    # failed while its data is being surfaced keeps that failure.
    swept = RankDeadError("swept")

    def sweep(world, req):
        req.event.fail(swept)

    t_done, (t, exc), req = eager_receive("shrink", sweep)
    assert t < t_done
    assert exc is swept
    assert req.event.value is swept
    assert req.status.source == -1 and req.status.nbytes == 0


def receive_after_peer_death(queued, dies=True):
    """Rank 0 (optionally after an EAGER send to rank 1) dies at t=0.5;
    rank 1 posts ``irecv(source=0, tag=0)`` at t=1.0 in shrink mode.
    Returns the receive's (sim time, outcome); ``dies=False`` is the
    live-peer reference run."""
    _, _, world = make_world("shrink")
    out = {}

    def sender(proc):
        if queued:
            yield from proc.comm_world.send("x", dest=1, nbytes=EAGER)
        yield proc.env.timeout(0.5 - proc.env.now)
        if dies:
            proc.world.kill_process(proc.gid, reason="test")

    def receiver(proc):
        yield proc.env.timeout(1.0)
        assert world.dead == ({0} if dies else set())
        req = proc.comm_world.irecv(source=0, tag=0)
        try:
            value = yield from req.wait()
        except Exception as exc:  # noqa: BLE001 - the outcome under test
            value = exc
        out["outcome"] = (proc.env.now, value)

    launch(world, [sender, receiver, idle])
    assert "outcome" in out, "the receive never completed"
    return out["outcome"]


def test_receive_from_a_dead_peer_fails_at_once_when_nothing_is_queued():
    t, exc = receive_after_peer_death(queued=False)
    assert t == 1.0
    assert type(exc) is RankDeadError
    assert "recv from dead gid=0" in str(exc)


def test_receive_from_a_dead_peer_completes_from_already_queued_data():
    # The data was matched out of the unexpected queue, exactly as if the
    # peer were still alive.
    t, value = receive_after_peer_death(queued=True)
    assert (t, value) == receive_after_peer_death(queued=True, dies=False)
    assert value == "x" and t > 1.0
