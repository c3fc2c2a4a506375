"""Pluggable communication transports (the paper's evaluation matrix)."""

from repro.simnet.interconnect import DEFAULT_COST, CostModel
from repro.transports.base import Transport
from repro.transports.mpi_basic import MpiBasicTransport
from repro.transports.mpi_coll import MpiCollectiveTransport
from repro.transports.mpi_opt import MpiOptimizedTransport
from repro.transports.nio import NioTransport
from repro.transports.rdma import RdmaTransport

TRANSPORTS: dict[str, type[Transport]] = {
    "nio": NioTransport,
    "rdma": RdmaTransport,
    "mpi-basic": MpiBasicTransport,
    "mpi-opt": MpiOptimizedTransport,
    "mpi-coll": MpiCollectiveTransport,
}

# Friendly aliases matching the paper's figure legends.
ALIASES = {
    "vanilla": "nio",
    "ipoib": "nio",
    "rdma-spark": "rdma",
    "mpi": "mpi-opt",
    "mpi4spark": "mpi-opt",
    "mpi4spark-basic": "mpi-basic",
    "mpi4spark-optimized": "mpi-opt",
    "coll": "mpi-coll",
    "alltoallv": "mpi-coll",
    "mpi4spark-collective": "mpi-coll",
}


def transport_class(name: str) -> type[Transport]:
    """The transport class for a name or paper-legend alias.

    The class carries the design's declared traits (``uses_mpi``,
    ``polling_tax_cores``, ``collective_shuffle``, ``polls_for_messages``),
    so analyses of a recorded run can look them up from the recorded
    transport name without building a cluster.
    """
    key = ALIASES.get(name.lower(), name.lower())
    cls = TRANSPORTS.get(key)
    if cls is None:
        raise KeyError(
            f"unknown transport {name!r}; choose from {sorted(TRANSPORTS)} "
            f"or aliases {sorted(ALIASES)}"
        )
    return cls


def make_transport(
    name: str,
    env,
    cluster,
    loaded: bool = False,
    fault_mode: str = "abort",
    cost: CostModel = DEFAULT_COST,
) -> Transport:
    """Instantiate a transport by name (accepts paper-legend aliases).

    ``loaded=True`` selects the full-CPU-load wire models for CPU-bound
    stacks — use it for end-to-end cluster runs, not microbenchmarks.
    ``fault_mode`` ("abort" | "shrink") selects the MPI world's reaction
    to rank death; socket transports ignore it. ``cost`` is the
    cluster's :class:`~repro.simnet.interconnect.CostModel`.
    """
    return transport_class(name)(
        env, cluster, loaded=loaded, fault_mode=fault_mode, cost=cost
    )


__all__ = [
    "Transport",
    "NioTransport",
    "RdmaTransport",
    "MpiBasicTransport",
    "MpiCollectiveTransport",
    "MpiOptimizedTransport",
    "TRANSPORTS",
    "ALIASES",
    "make_transport",
    "transport_class",
]
