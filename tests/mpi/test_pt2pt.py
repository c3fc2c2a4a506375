"""Point-to-point semantics: send/recv, argument checks, ordering, protocols."""

import gc
import weakref

import pytest

from repro.mpi import CommError, MPIWorld, RankSpec, TagError
from repro.simnet import IB_HDR, SimCluster, SimEngine, mpi_over
from repro.util.units import KiB, MiB


def make_world(n_nodes=2, cores=4):
    env = SimEngine()
    cluster = SimCluster(env, IB_HDR, n_nodes=n_nodes, cores_per_node=cores)
    world = MPIWorld(env, cluster, mpi_over(IB_HDR))
    return env, cluster, world


def run_ranks(world, mains, nodes=None):
    """Launch one rank per main function; return their sim processes."""
    nodes = nodes or [i % len(world.cluster.nodes) for i in range(len(mains))]
    specs = [RankSpec(main=m, node=n) for m, n in zip(mains, nodes)]
    procs = world.launch(specs)
    world.env.run()
    return [p.sim_process.value for p in procs]


class TestBasicSendRecv:
    def test_two_rank_roundtrip(self):
        env, cluster, world = make_world()

        def sender(proc):
            comm = proc.comm_world
            yield from comm.send({"a": 7, "b": 3.14}, dest=1, tag=11)
            return "sent"

        def receiver(proc):
            comm = proc.comm_world
            data = yield from comm.recv(source=0, tag=11)
            return data

        sent, received = run_ranks(world, [sender, receiver])
        assert sent == "sent"
        assert received == {"a": 7, "b": 3.14}

    def test_rank_and_size(self):
        env, cluster, world = make_world()

        def main(proc):
            yield proc.env.timeout(0)
            return (proc.comm_world.rank, proc.comm_world.size)

        results = run_ranks(world, [main] * 3, nodes=[0, 1, 0])
        assert results == [(0, 3), (1, 3), (2, 3)]

    def test_send_to_self(self):
        env, cluster, world = make_world(n_nodes=1)

        def main(proc):
            comm = proc.comm_world
            req = comm.irecv(source=0, tag=5)
            yield from comm.send("self-msg", dest=0, tag=5)
            value = yield from req.wait()
            return value

        (result,) = run_ranks(world, [main], nodes=[0])
        assert result == "self-msg"

    def test_bad_tag_rejected(self):
        env, cluster, world = make_world()

        def sender(proc):
            yield from proc.comm_world.send("x", dest=1, tag=-3)

        def receiver(proc):
            value = yield from proc.comm_world.recv(source=0, tag=0)
            return value

        with pytest.raises(TagError):
            run_ranks(world, [sender, receiver])

    @pytest.mark.parametrize(
        "source,tag,error",
        [
            (5, 0, CommError),
            (-1, 0, CommError),
            (0, -1, TagError),
            (0, 1 << 24, TagError),
        ],
    )
    @pytest.mark.parametrize("blocking", [False, True])
    def test_bad_receive_rejected_before_posting(self, source, tag, error, blocking):
        # A receive naming a rank outside the 2-rank world, or a tag
        # outside [0, MAX_TAG), could never match: it raises as the same
        # send would, and nothing is left posted.
        env, cluster, world = make_world()

        def receiver(proc):
            comm = proc.comm_world
            if blocking:
                yield from comm.recv(source=source, tag=tag)
            else:
                comm.irecv(source=source, tag=tag)
            yield proc.env.timeout(0)

        def idle(proc):
            yield proc.env.timeout(0)

        procs = world.launch(
            [RankSpec(main=receiver, node=0), RankSpec(main=idle, node=1)]
        )
        with pytest.raises(error):
            env.run()
        assert procs[0].matching.fail_posted(lambda p: True, RuntimeError) == 0

    def test_explicit_nbytes_override(self):
        env, cluster, world = make_world()

        def sender(proc):
            # Tiny sample payload, nominal 4 MiB on the wire.
            yield from proc.comm_world.send("sample", dest=1, nbytes=4 * MiB)

        def receiver(proc):
            req = proc.comm_world.irecv(source=0, tag=0)
            value = yield from req.wait()
            return (value, req.status.nbytes)

        _, result = run_ranks(world, [sender, receiver])
        assert result == ("sample", 4 * MiB)


class TestMatchingSemantics:
    def test_tag_selectivity(self):
        env, cluster, world = make_world()

        def sender(proc):
            comm = proc.comm_world
            yield from comm.send("t1", dest=1, tag=1)
            yield from comm.send("t2", dest=1, tag=2)

        def receiver(proc):
            comm = proc.comm_world
            second = yield from comm.recv(source=0, tag=2)
            first = yield from comm.recv(source=0, tag=1)
            return (first, second)

        _, result = run_ranks(world, [sender, receiver])
        assert result == ("t1", "t2")

    def test_non_overtaking_same_tag(self):
        env, cluster, world = make_world()

        def sender(proc):
            comm = proc.comm_world
            for i in range(5):
                yield from comm.send(i, dest=1, tag=7)

        def receiver(proc):
            comm = proc.comm_world
            got = []
            for _ in range(5):
                value = yield from comm.recv(source=0, tag=7)
                got.append(value)
            return got

        _, result = run_ranks(world, [sender, receiver])
        assert result == [0, 1, 2, 3, 4]

    def test_unexpected_queue_then_match(self):
        # Message arrives before recv is posted: unexpected queue path.
        env, cluster, world = make_world()

        def sender(proc):
            yield from proc.comm_world.send("early", dest=1, tag=9)

        def receiver(proc):
            comm = proc.comm_world
            yield proc.env.timeout(1.0)  # let the message sit unexpected
            assert proc.matching.iprobe(0, 9, comm.desc.ctx_pt2pt)
            value = yield from comm.recv(source=0, tag=9)
            return (value, proc.matching._c_unexpected_matches.value)

        _, result = run_ranks(world, [sender, receiver])
        assert result == ("early", 1)

    def test_preposted_recv_fast_path(self):
        env, cluster, world = make_world()

        def sender(proc):
            yield proc.env.timeout(1.0)
            yield from proc.comm_world.send("late", dest=1, tag=9)

        def receiver(proc):
            comm = proc.comm_world
            value = yield from comm.recv(source=0, tag=9)
            return (value, proc.matching._c_posted_matches.value)

        _, result = run_ranks(world, [sender, receiver])
        assert result == ("late", 1)


class TestProtocols:
    def test_eager_send_returns_before_delivery(self):
        env, cluster, world = make_world()
        model = mpi_over(IB_HDR)
        times = {}

        def sender(proc):
            comm = proc.comm_world
            yield from comm.send("small", dest=1, nbytes=1 * KiB)
            times["send_done"] = proc.env.now

        def receiver(proc):
            yield proc.env.timeout(0.5)
            value = yield from proc.comm_world.recv(source=0, tag=0)
            times["recv_done"] = proc.env.now
            return value

        run_ranks(world, [sender, receiver])
        # Eager: sender completes locally, long before the receiver takes it.
        assert times["send_done"] < 0.5
        assert times["recv_done"] >= 0.5

    def test_rendezvous_send_blocks_until_matched(self):
        env, cluster, world = make_world()
        times = {}

        def sender(proc):
            comm = proc.comm_world
            yield from comm.send("big", dest=1, nbytes=8 * MiB)
            times["send_done"] = proc.env.now

        def receiver(proc):
            yield proc.env.timeout(0.5)  # delay posting the recv
            value = yield from proc.comm_world.recv(source=0, tag=0)
            times["recv_done"] = proc.env.now
            return value

        run_ranks(world, [sender, receiver])
        # Rendezvous: the send cannot complete before the recv was posted.
        assert times["send_done"] >= 0.5

    def test_rendezvous_timing_scales_with_size(self):
        def roundtrip_time(nbytes):
            env, cluster, world = make_world()

            def sender(proc):
                yield from proc.comm_world.send("x", dest=1, nbytes=nbytes)

            def receiver(proc):
                yield from proc.comm_world.recv(source=0, tag=0)
                return proc.env.now

            _, t = run_ranks(world, [sender, receiver])
            return t

        assert roundtrip_time(16 * MiB) > 3 * roundtrip_time(1 * MiB)


class TestNonblocking:
    def test_isend_irecv(self):
        env, cluster, world = make_world()

        def sender(proc):
            comm = proc.comm_world
            reqs = [comm.isend(i, dest=1, tag=i) for i in range(3)]
            for req in reqs:
                yield from req.wait()
            return "all-sent"

        def receiver(proc):
            comm = proc.comm_world
            reqs = [comm.irecv(source=0, tag=i) for i in range(3)]
            values = []
            for req in reqs:
                value = yield from req.wait()
                values.append(value)
            return values

        sent, received = run_ranks(world, [sender, receiver])
        assert sent == "all-sent"
        assert received == [0, 1, 2]

    def test_completed_rendezvous_isend_frees_its_request(self):
        # The pipe pump parks holding no envelope, so nothing keeps the
        # sender's request (through the envelope's send_done) once it is done.
        env, cluster, world = make_world()
        refs = []

        def sender(proc):
            req = proc.comm_world.isend("big", dest=1, nbytes=8 * MiB)
            yield from req.wait()
            refs.append(weakref.ref(req))

        def receiver(proc):
            yield from proc.comm_world.recv(source=0, tag=0)

        run_ranks(world, [sender, receiver])
        gc.collect()
        assert refs[0]() is None
