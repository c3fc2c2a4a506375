"""Collective algorithm correctness across varied communicator sizes."""

import random

import pytest

from repro.mpi import MPIWorld, RankSpec
from repro.mpi.collectives import alltoallv
from repro.simnet import IB_HDR, SimCluster, SimEngine, mpi_over


def run_collective(n, main, nodes_count=4, causal=False):
    env = SimEngine()
    if causal:
        from repro.obs.causal import CausalTracer

        env.causal = CausalTracer(env)
    cluster = SimCluster(env, IB_HDR, n_nodes=nodes_count, cores_per_node=4)
    world = MPIWorld(env, cluster, mpi_over(IB_HDR))
    specs = [RankSpec(main=main, node=i % nodes_count) for i in range(n)]
    procs = world.launch(specs)
    env.run()
    values = [p.sim_process.value for p in procs]
    if causal:
        return values, env.causal.flight
    return values


SIZES = [1, 2, 3, 4, 5, 8, 13]


class TestBcast:
    @pytest.mark.parametrize("n", SIZES)
    def test_bcast_from_zero(self, n):
        def main(proc):
            comm = proc.comm_world
            obj = {"payload": 99} if comm.rank == 0 else None
            value = yield from comm.bcast(obj, root=0)
            return value

        results = run_collective(n, main)
        assert all(r == {"payload": 99} for r in results)

    @pytest.mark.parametrize("root", [0, 1, 2])
    def test_bcast_nonzero_root(self, root):
        def main(proc):
            comm = proc.comm_world
            obj = f"root-{comm.rank}" if comm.rank == root else None
            value = yield from comm.bcast(obj, root=root)
            return value

        results = run_collective(4, main)
        assert all(r == f"root-{root}" for r in results)

    def test_bcast_bad_root(self):
        def main(proc):
            comm = proc.comm_world
            value = yield from comm.bcast("x", root=10)
            return value

        with pytest.raises(Exception):
            run_collective(2, main)


class TestAllgather:
    @pytest.mark.parametrize("n", SIZES)
    def test_allgather_ring(self, n):
        def main(proc):
            comm = proc.comm_world
            result = yield from comm.allgather(f"r{comm.rank}")
            return result

        results = run_collective(n, main)
        expected = [f"r{i}" for i in range(n)]
        assert all(r == expected for r in results)


def _reference_alltoallv(rows):
    """Pure-python reference: out[i][j] = rows[j][i] (the transpose)."""
    n = len(rows)
    return [[rows[j][i] for j in range(n)] for i in range(n)]


class TestAlltoallv:
    @pytest.mark.parametrize("n", SIZES)
    def test_alltoallv_exchange(self, n):
        def main(proc):
            comm = proc.comm_world
            objs = [(comm.rank, j) for j in range(comm.size)]
            nbytes = [1024 * (comm.rank + j + 1) for j in range(comm.size)]
            result = yield from alltoallv(comm, objs, nbytes=nbytes)
            return result

        results = run_collective(n, main)
        rows = [[(i, j) for j in range(n)] for i in range(n)]
        expected = _reference_alltoallv(rows)
        assert results == expected

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_alltoallv_zero_size_slots(self, n):
        # Zero-byte slots still ride the schedule: every rank gets every
        # peer's slot even when the byte count is 0 (skew-proof rounds).
        def main(proc):
            comm = proc.comm_world
            objs = [(comm.rank, j) for j in range(comm.size)]
            nbytes = [0 if (comm.rank + j) % 2 else 4096
                      for j in range(comm.size)]
            result = yield from alltoallv(comm, objs, nbytes=nbytes)
            return result

        results = run_collective(n, main)
        rows = [[(i, j) for j in range(n)] for i in range(n)]
        assert results == _reference_alltoallv(rows)

    def test_alltoallv_self_slot_identity(self):
        def main(proc):
            comm = proc.comm_world
            marker = object()
            objs = [marker for _ in range(comm.size)]
            nbytes = [0] * comm.size
            result = yield from alltoallv(comm, objs, nbytes=nbytes)
            return result[comm.rank] is marker

        assert all(run_collective(4, main))

    def test_alltoallv_wrong_length(self):
        def main(proc):
            comm = proc.comm_world
            result = yield from alltoallv(comm, [1])
            return result

        with pytest.raises(Exception):
            run_collective(3, main)

    def test_alltoallv_wrong_nbytes_length(self):
        def main(proc):
            comm = proc.comm_world
            objs = [None] * comm.size
            result = yield from alltoallv(comm, objs, nbytes=[1])
            return result

        with pytest.raises(Exception):
            run_collective(3, main)

    def test_alltoallv_caller_not_in_ranks(self):
        def main(proc):
            comm = proc.comm_world
            objs = [None] * comm.size
            result = yield from alltoallv(comm, objs, ranks=[0, 1])
            return result

        with pytest.raises(Exception):
            run_collective(3, main)

    def test_alltoallv_duplicate_ranks(self):
        def main(proc):
            comm = proc.comm_world
            objs = [None] * comm.size
            result = yield from alltoallv(comm, objs, ranks=[0, 0, 1])
            return result

        with pytest.raises(Exception):
            run_collective(2, main)

    def test_alltoallv_rank_subset(self):
        # Only ranks {0, 2, 3} participate (the ULFM-shrunk schedule);
        # rank 1 sits the exchange out entirely.
        subset = [0, 2, 3]

        def main(proc):
            comm = proc.comm_world
            if comm.rank not in subset:
                yield proc.env.timeout(0)
                return "absent"
            objs = [(comm.rank, j) if j in subset else None
                    for j in range(comm.size)]
            result = yield from alltoallv(
                comm, objs, tag=12345, ranks=subset
            )
            return result

        results = run_collective(4, main)
        assert results[1] == "absent"
        for i in subset:
            for j in range(4):
                assert results[i][j] == ((j, i) if j in subset else None)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_alltoallv_randomized_against_reference(self, seed):
        # Property test: random sizes (zeros included), random payloads —
        # the result is always the transpose of the send matrix, and the
        # shifted-pairwise schedule (verified separately below) never
        # reorders or drops a slot no matter how skewed the sizes are.
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4, 5, 8])
        size_matrix = [
            [rng.choice([0, 0, 64, 4096, 262144]) for _ in range(n)]
            for _ in range(n)
        ]
        rows = [[(i, j, size_matrix[i][j]) for j in range(n)] for i in range(n)]

        def main(proc):
            comm = proc.comm_world
            r = comm.rank
            result = yield from alltoallv(
                comm, rows[r], nbytes=size_matrix[r]
            )
            return result

        results = run_collective(n, main)
        assert results == _reference_alltoallv(rows)

    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_alltoallv_schedule_is_shifted_pairwise(self, n):
        # Pin the round schedule against the reference definition: in
        # round s, rank r sends to (r+s) % n. Observed via the causal
        # trace each per-peer send records (leg="mpi-coll").
        def main(proc):
            comm = proc.comm_world
            objs = [(comm.rank, j) for j in range(comm.size)]
            root = proc.env.causal.mint()  # one trace per rank's exchange
            result = yield from alltoallv(comm, objs, trace_parent=root)
            return result

        results, flight = run_collective(n, main, causal=True)
        rows = [[(i, j) for j in range(n)] for i in range(n)]
        assert results == _reference_alltoallv(rows)
        sends = [ev for ev in flight.events
                 if ev.name == "msg.send" and ev.attrs.get("leg") == "mpi-coll"]
        assert len(sends) == n * (n - 1)
        # Group send events by trace (one trace per rank's exchange, the
        # roots minted in rank order) and check each dst sequence.
        by_trace = {}
        for ev in sends:
            by_trace.setdefault(ev.trace, []).append(ev)
        schedules = [
            [ev.attrs["dst"] for ev in evs] for _, evs in sorted(by_trace.items())
        ]
        expected = sorted(
            [(r + s) % n for s in range(1, n)] for r in range(n)
        )
        assert sorted(schedules) == expected

    def test_alltoallv_deterministic(self):
        # Same spec, two engines: identical completion times to the bit.
        def build():
            def main(proc):
                comm = proc.comm_world
                nbytes = [(comm.rank + j) * 100_000 for j in range(comm.size)]
                yield from alltoallv(comm, [None] * comm.size, nbytes=nbytes)
                return proc.env.now

            return run_collective(5, main)

        assert build() == build()

    def test_alltoallv_traced_equals_untraced_timing(self):
        # Tracing must observe, never perturb: byte-identical timing.
        def main(proc):
            comm = proc.comm_world
            nbytes = [(comm.rank * j) * 65536 for j in range(comm.size)]
            yield from alltoallv(comm, [None] * comm.size, nbytes=nbytes)
            return proc.env.now

        untraced = run_collective(4, main)
        traced, _flight = run_collective(4, main, causal=True)
        assert traced == untraced


class TestCollectiveIsolation:
    def test_pt2pt_and_collectives_do_not_interfere(self):
        # User pt2pt messages with tags colliding with collective tags must
        # never be swallowed by a collective (separate context ids).
        def main(proc):
            comm = proc.comm_world
            if comm.rank == 0:
                yield from comm.send("user-msg", dest=1, tag=1)
                gathered = yield from comm.allgather(comm.rank)
                return gathered
            value_req = comm.irecv(source=0, tag=1)
            gathered = yield from comm.allgather(comm.rank)
            value = yield from value_req.wait()
            return (gathered, value)

        results = run_collective(2, main)
        assert results == [[0, 1], ([0, 1], "user-msg")]

    def test_back_to_back_collectives(self):
        def main(proc):
            comm = proc.comm_world
            a = yield from comm.allgather(comm.rank)
            b = yield from alltoallv(comm, [(comm.rank, j) for j in range(comm.size)])
            c = yield from comm.bcast("last" if comm.rank == 0 else None, root=0)
            return (a, b, c)

        results = run_collective(4, main)
        for rank, (a, b, c) in enumerate(results):
            assert a == [0, 1, 2, 3]
            assert b == [(j, rank) for j in range(4)]
            assert c == "last"
