"""Loaded vs idle wire models and transport wiring."""

import pytest

from repro.simnet import IB_HDR, OPA, SimCluster, SimEngine
from repro.simnet.interconnect import (
    mpi_over,
    rdma_loaded_over,
    rdma_over,
    tcp_loaded_over,
    tcp_over,
)
from repro.transports import make_transport
from repro.util.units import MiB, gbps


class TestLoadedModels:
    def test_loaded_tcp_slower_than_idle(self):
        idle = tcp_over(IB_HDR)
        loaded = tcp_loaded_over(IB_HDR)
        assert loaded.effective_bandwidth_Bps() < idle.effective_bandwidth_Bps()

    def test_loaded_rdma_slower_than_idle(self):
        assert (
            rdma_loaded_over(IB_HDR).effective_bandwidth_Bps()
            < rdma_over(IB_HDR).effective_bandwidth_Bps()
        )

    def test_paper_calibration_ratios(self):
        # The loaded models are calibrated from the paper's own shuffle-read
        # ratios: MPI ~13x over loaded TCP, loaded RDMA ~2.35x over loaded TCP.
        tcp = tcp_loaded_over(IB_HDR).effective_bandwidth_Bps()
        rdma = rdma_loaded_over(IB_HDR).effective_bandwidth_Bps()
        mpi = mpi_over(IB_HDR).effective_bandwidth_Bps()
        assert 2.0 < rdma / tcp < 2.8
        assert 18 < mpi / tcp < 26  # bandwidth ratio exceeds the end-to-end 13x

    def test_loaded_tcp_works_on_opa_too(self):
        loaded = tcp_loaded_over(OPA)
        assert loaded.effective_bandwidth_Bps() < gbps(10)


class TestTransportLoadedFlag:
    def _mk(self, name, loaded):
        env = SimEngine()
        cluster = SimCluster(env, IB_HDR, n_nodes=2, cores_per_node=4)
        return make_transport(name, env, cluster, loaded=loaded)

    def test_nio_data_plane_switches_with_load(self):
        idle = self._mk("nio", loaded=False)
        loaded = self._mk("nio", loaded=True)
        assert (
            loaded.data_stack.model.effective_bandwidth_Bps()
            < idle.data_stack.model.effective_bandwidth_Bps()
        )

    def test_control_plane_always_idle_tcp(self):
        loaded = self._mk("nio", loaded=True)
        assert loaded.control_stack.model.name.startswith("tcp/")

    def test_rdma_data_plane_switches(self):
        idle = self._mk("rdma", loaded=False)
        loaded = self._mk("rdma", loaded=True)
        assert (
            loaded.data_stack.model.effective_bandwidth_Bps()
            < idle.data_stack.model.effective_bandwidth_Bps()
        )

    def test_mpi_wire_model_unaffected_by_load(self):
        # Kernel bypass: the MPI runtime's wire model is identical.
        idle = self._mk("mpi-opt", loaded=False)
        loaded = self._mk("mpi-opt", loaded=True)
        assert idle.mpi_world.model.per_byte_s == loaded.mpi_world.model.per_byte_s
