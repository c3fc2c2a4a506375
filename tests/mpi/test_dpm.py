"""Dynamic Process Management tests: the paper's Fig-3 launch flow."""

import pytest

from repro.mpi import MPIWorld, RankSpec, SpawnError, SpawnSpec
from repro.simnet import IB_HDR, SimCluster, SimEngine, mpi_over


def make_world(n_nodes=4):
    env = SimEngine()
    cluster = SimCluster(env, IB_HDR, n_nodes=n_nodes, cores_per_node=8)
    world = MPIWorld(env, cluster, mpi_over(IB_HDR))
    return env, world


class TestSpawnMultiple:
    def test_children_get_own_world_and_parent_comm(self):
        env, world = make_world()
        child_results = []

        def child_main(proc):
            comm = proc.comm_world
            assert proc.parent_comm is not None
            yield proc.env.timeout(0)
            child_results.append((comm.rank, comm.size, proc.parent_comm.remote_size))
            return "child-done"

        def parent_main(proc):
            comm = proc.comm_world
            specs = [
                SpawnSpec(main=child_main, node=0, count=1, name="exec"),
                SpawnSpec(main=child_main, node=1, count=1, name="exec"),
            ]
            intercomm = yield from comm.spawn_multiple(
                specs if comm.rank == 0 else None, root=0
            )
            return intercomm.remote_size

        procs = world.launch([RankSpec(main=parent_main, node=i) for i in range(2)])
        env.run()
        assert [p.sim_process.value for p in procs] == [2, 2]
        assert sorted(child_results) == [(0, 2, 2), (1, 2, 2)]

    def test_parent_child_pt2pt_over_intercomm(self):
        env, world = make_world()

        def child_main(proc):
            parent = proc.parent_comm
            value = yield from parent.recv(source=0, tag=1)
            yield from parent.send(value * 2, dest=0, tag=2)
            return value

        def parent_single(proc):
            comm = proc.comm_world
            intercomm = yield from comm.spawn_multiple(
                [SpawnSpec(main=child_main, node=1, count=1)], root=0
            )
            yield from intercomm.send(21, dest=0, tag=1)
            result = yield from intercomm.recv(source=0, tag=2)
            return result

        procs = world.launch([RankSpec(main=parent_single, node=0)])
        env.run()
        assert procs[0].sim_process.value == 42

    def test_children_communicate_over_dpm_comm(self):
        # Paper: "Communication between executors is carried out using
        # DPM_COMM" — the children's own COMM_WORLD.
        env, world = make_world()

        def child_with_report(proc):
            comm = proc.comm_world  # DPM_COMM
            assert comm.name == "DPM_COMM"
            gathered = yield from comm.allgather(f"exec-{comm.rank}")
            # Report to a parent over the intercommunicator: child r to
            # parent r % 2.
            yield from proc.parent_comm.send(comm.rank, dest=comm.rank % 2, tag=7)
            return gathered

        def parent(proc):
            comm = proc.comm_world
            specs = [SpawnSpec(main=child_with_report, node=n, count=1) for n in range(3)]
            intercomm = yield from comm.spawn_multiple(
                specs if comm.rank == 0 else None, root=0
            )
            reports = []
            for child in range(comm.rank, intercomm.remote_size, comm.size):
                reports.append((yield from intercomm.recv(source=child, tag=7)))
            return reports

        procs = world.launch([RankSpec(main=parent, node=0), RankSpec(main=parent, node=1)])
        env.run()
        assert [p.sim_process.value for p in procs] == [[0, 2], [1]]
        # The three children each saw the full DPM_COMM gather.
        children = [p for gid, p in world._procs.items() if p.comm_world.name == "DPM_COMM"]
        assert len(children) == 3
        for child in children:
            assert child.sim_process.value == ["exec-0", "exec-1", "exec-2"]

    def test_spawn_count_expands(self):
        env, world = make_world()

        def child_main(proc):
            yield proc.env.timeout(0)
            return proc.comm_world.size

        def parent(proc):
            comm = proc.comm_world
            spec = SpawnSpec(main=child_main, node=2, count=4)
            intercomm = yield from comm.spawn_multiple([spec], root=0)
            return intercomm.remote_size

        procs = world.launch([RankSpec(main=parent, node=0)])
        env.run()
        assert procs[0].sim_process.value == 4

    def test_invalid_count_rejected(self):
        with pytest.raises(SpawnError):
            SpawnSpec(main=lambda p: iter(()), node=0, count=0)

    def test_empty_specs_rejected(self):
        env, world = make_world()

        def parent(proc):
            comm = proc.comm_world
            intercomm = yield from comm.spawn_multiple([], root=0)
            return intercomm

        world.launch([RankSpec(main=parent, node=0)])
        with pytest.raises(SpawnError):
            env.run()

    def test_spawn_takes_time(self):
        env, world = make_world()

        def child_main(proc):
            yield proc.env.timeout(0)

        def parent(proc):
            comm = proc.comm_world
            yield from comm.spawn_multiple([SpawnSpec(main=child_main, node=1)], root=0)
            return proc.env.now

        procs = world.launch([RankSpec(main=parent, node=0)])
        env.run()
        from repro.mpi import SPAWN_COST_S

        assert procs[0].sim_process.value >= SPAWN_COST_S

    def test_intercomm_bcast_to_children(self):
        # The parent root reaches every child rank by pt2pt over the
        # intercommunicator (remote ranks are the children's).
        env, world = make_world()

        def child_main(proc):
            value = yield from proc.parent_comm.recv(source=0, tag=3)
            return value

        def parent(proc):
            comm = proc.comm_world
            specs = [SpawnSpec(main=child_main, node=n) for n in range(3)]
            intercomm = yield from comm.spawn_multiple(
                specs if comm.rank == 0 else None, root=0
            )
            for child in range(intercomm.remote_size):
                yield from intercomm.send("jar-metadata", dest=child, tag=3)
            return "sent"

        world.launch([RankSpec(main=parent, node=0)])
        env.run()
        children = [p for p in world._procs.values() if p.comm_world.name == "DPM_COMM"]
        assert [c.sim_process.value for c in children] == ["jar-metadata"] * 3
