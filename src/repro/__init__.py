"""MPI4Spark reproduction (CLUSTER 2022).

A from-scratch Python implementation of "Spark Meets MPI: Towards
High-Performance Communication Framework for Spark using MPI" and every
substrate it depends on:

* :mod:`repro.simnet`  — discrete-event cluster/network simulator,
* :mod:`repro.mpi`     — an MPI runtime (pt2pt, iprobe, bcast / allgather /
  alltoallv, DPM),
* :mod:`repro.netty`   — an event-driven network framework (Netty),
* :mod:`repro.spark`   — a working mini-Spark (RDDs, DAG, shuffle,
  network layer, cluster deployment),
* :mod:`repro.core`    — the paper's contribution: the MPI-based Netty
  transport (Basic and Optimized designs), channel-rank mapping, DPM launch,
* :mod:`repro.transports` — the evaluation matrix (NIO/RDMA/MPI-Basic/MPI-Opt/MPI-Coll),
* :mod:`repro.workloads`  — OHB and Intel HiBench workloads,
* :mod:`repro.harness`    — per-figure experiment drivers.

Quickstart::

    from repro.spark import SparkContext
    sc = SparkContext()
    sc.range(100).map(lambda x: (x % 10, x)).reduce_by_key(lambda a, b: a + b).collect()
"""

__version__ = "1.0.0"
