"""RDMA-Spark: an RDMA-based BlockTransferService (Lu et al., comparator).

RDMA-Spark keeps Spark's shuffle managers and replaces the
BlockTransferService with one driven by its Unified Communication Runtime
(UCR) over IB verbs. We model that by giving the *data plane* an RDMA wire
model while the control plane (RPC, connection establishment) stays on
TCP — matching RDMA-Spark's architecture, where RPC messages remain on
Java sockets.

The RDMA wire model's effective bandwidth is calibrated from the paper's
own measurement: RDMA-Spark's shuffle read is ~2.3x faster than IPoIB
(13.08/5.56, Sec. VII-E), far below raw verbs line rate, reflecting UCR's
chunk registration and completion-handling overheads.
"""

from __future__ import annotations

from repro.simnet.interconnect import rdma_loaded_over, rdma_over
from repro.simnet.sockets import SocketStack
from repro.transports.base import Transport


class RdmaTransport(Transport):
    """RDMA-Spark comparator: RDMA data plane, TCP control plane."""

    name = "rdma"

    def __init__(self, env, cluster, **kwargs) -> None:
        super().__init__(env, cluster, **kwargs)
        model = rdma_loaded_over(self.fabric) if self.loaded else rdma_over(self.fabric)
        self.data_stack = SocketStack(env, cluster, model)
