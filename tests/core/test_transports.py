"""Core MPI4Spark machinery: handshake, rank mapping, both designs."""

import pytest

from repro.core.endpoint import COMM_KIND_INTER, MpiEndpoint
from repro.core.handshake import ATTR_BINDING, ATTR_TAG, RankAnnouncement
from repro.harness.pingpong import run_pingpong
from repro.mpi import MPIWorld, RankSpec, SpawnSpec
from repro.mpi.errors import CommError
from repro.netty.bytebuf import ByteBuf
from repro.simnet import IB_EDR, IB_HDR, SimCluster, SimEngine, mpi_over
from repro.transports import TRANSPORTS, make_transport, transport_class
from repro.util.units import KiB, MiB


class TestTransportRegistry:
    def test_five_transports(self):
        assert set(TRANSPORTS) == {"nio", "rdma", "mpi-basic", "mpi-opt", "mpi-coll"}

    def test_unknown_transport(self):
        env = SimEngine()
        cluster = SimCluster(env, IB_HDR, n_nodes=2, cores_per_node=2)
        with pytest.raises(KeyError):
            make_transport("quantum", env, cluster)

    def test_transport_class_resolves_names_and_aliases(self):
        # Names resolve exactly; the paper's legend aliases do not resolve.
        for name, cls in TRANSPORTS.items():
            assert transport_class(name) is cls
            assert cls.name == name
        for legend in ("vanilla", "mpi4spark", "coll", "MPI-Basic"):
            with pytest.raises(KeyError, match="choose from"):
                transport_class(legend)
        with pytest.raises(KeyError, match="quantum"):
            transport_class("quantum")

    def test_declared_traits(self):
        # Callers read these off the class, never off the transport's name.
        polls = {n for n, c in TRANSPORTS.items() if c.polls_for_messages}
        collects = {n for n, c in TRANSPORTS.items() if c.collective_shuffle}
        assert polls == {"mpi-basic"}
        assert collects == {"mpi-coll"}
        assert {n for n, c in TRANSPORTS.items() if c.uses_mpi} == {
            "mpi-basic", "mpi-opt", "mpi-coll"
        }

    def test_taxes(self):
        env = SimEngine()
        cluster = SimCluster(env, IB_HDR, n_nodes=2, cores_per_node=2)
        basic = make_transport("mpi-basic", env, cluster)
        opt = make_transport("mpi-opt", make_env := SimEngine(),
                             SimCluster(make_env, IB_HDR, n_nodes=2, cores_per_node=2))
        assert basic.polling_tax_cores >= 1
        assert basic.compute_inflation > 1.0
        assert opt.polling_tax_cores == 0
        assert opt.compute_inflation == 1.0


class TestRankAnnouncementCodec:
    def test_roundtrip(self):
        env = SimEngine()
        cluster = SimCluster(env, IB_HDR, n_nodes=2, cores_per_node=2)
        t = make_transport("nio", env, cluster)
        # encode() needs a channel for its allocator; use a ByteBuf directly.
        ann = RankAnnouncement(gid=12, tag=345, kind=COMM_KIND_INTER, reply_expected=True)
        buf = ByteBuf()
        buf.write_long(ann.gid)
        buf.write_long(ann.tag)
        buf.write_byte(ann.kind)
        buf.write_byte(1)
        got = RankAnnouncement.decode(buf)
        assert got == ann


class TestEndpointResolution:
    def make_world(self):
        env = SimEngine()
        cluster = SimCluster(env, IB_HDR, n_nodes=4, cores_per_node=4)
        world = MPIWorld(env, cluster, mpi_over(IB_HDR))
        return env, world

    def test_intracomm_resolution(self):
        env, world = self.make_world()

        def main(proc):
            yield proc.env.timeout(0)

        procs = world.launch([RankSpec(main=main, node=i) for i in range(3)])
        env.run()
        ep = MpiEndpoint(procs[0])
        binding = ep.resolve(procs[2].gid)
        assert binding.peer_rank == 2
        assert binding.comm is procs[0].comm_world

    def test_unreachable_peer_raises(self):
        env, world = self.make_world()

        def main(proc):
            yield proc.env.timeout(0)

        procs = world.launch([RankSpec(main=main, node=0)])
        env.run()
        ep = MpiEndpoint(procs[0])
        with pytest.raises(CommError):
            ep.resolve(999)

    def test_intercomm_resolution_after_spawn(self):
        env, world = self.make_world()
        bindings = {}

        def child_main(proc):
            yield proc.env.timeout(0)
            ep = MpiEndpoint(proc)
            parent_gid = proc.parent_comm.desc.remote_group.gid_of(0)
            bindings["child_to_parent"] = ep.resolve(parent_gid)

        def parent_main(proc):
            comm = proc.comm_world
            yield from comm.spawn_multiple(
                [SpawnSpec(main=child_main, node=1, count=2)], root=0
            )

        world.launch([RankSpec(main=parent_main, node=0)])
        env.run()
        assert bindings["child_to_parent"].kind == COMM_KIND_INTER
        assert bindings["child_to_parent"].peer_rank == 0

    def test_dpm_comm_resolution_between_children(self):
        env, world = self.make_world()
        result = {}

        def child_main(proc):
            yield proc.env.timeout(0)
            if proc.comm_world.rank == 0:
                ep = MpiEndpoint(proc)
                other_gid = proc.comm_world.desc.local_group.gid_of(1)
                result["binding"] = ep.resolve(other_gid)

        def parent_main(proc):
            yield from proc.comm_world.spawn_multiple(
                [SpawnSpec(main=child_main, node=1, count=2)], root=0
            )

        world.launch([RankSpec(main=parent_main, node=0)])
        env.run()
        from repro.core.endpoint import COMM_KIND_DPM

        assert result["binding"].kind == COMM_KIND_DPM
        assert result["binding"].comm.name == "DPM_COMM"


class TestPingPongIntegration:
    """Full-stack fetches through each transport (Fig-8 machinery)."""

    SIZES = [64, 4 * KiB, 1 * MiB, 4 * MiB]

    def test_nio_latency_monotone_in_size(self):
        result = run_pingpong("nio", self.SIZES, iterations=2)
        lats = [result.latency_s[s] for s in self.SIZES]
        assert lats == sorted(lats)

    def test_handshake_binds_channel(self):
        # The mpi-opt ping-pong only works if the handshake resolved a
        # binding; a missing binding raises inside the transport write.
        result = run_pingpong("mpi-opt", [1 * MiB], iterations=2)
        assert result.latency_s[1 * MiB] > 0

    def test_netty_mpi_beats_nio_at_4mb_by_about_9x(self):
        # Paper Fig. 8: "speedups of up to 9x for 4MB messages" on IB-EDR.
        nio = run_pingpong("nio", [4 * MiB], iterations=3)
        mpi = run_pingpong("mpi-basic", [4 * MiB], iterations=3)
        ratio = nio.latency_s[4 * MiB] / mpi.latency_s[4 * MiB]
        assert 7.0 < ratio < 11.0

    def test_netty_mpi_beats_nio_at_all_sizes(self):
        nio = run_pingpong("nio", self.SIZES, iterations=2)
        mpi = run_pingpong("mpi-basic", self.SIZES, iterations=2)
        for size in self.SIZES:
            assert mpi.latency_s[size] < nio.latency_s[size]

    def test_optimized_design_wins_for_bulk_sizes(self):
        nio = run_pingpong("nio", [1 * MiB, 4 * MiB], iterations=2)
        opt = run_pingpong("mpi-opt", [1 * MiB, 4 * MiB], iterations=2)
        for size in (1 * MiB, 4 * MiB):
            assert opt.latency_s[size] < nio.latency_s[size] / 3

    def test_rdma_between_nio_and_mpi(self):
        size = 4 * MiB
        nio = run_pingpong("nio", [size], iterations=2)
        rdma = run_pingpong("rdma", [size], iterations=2)
        mpi = run_pingpong("mpi-basic", [size], iterations=2)
        assert mpi.latency_s[size] < rdma.latency_s[size] < nio.latency_s[size]
