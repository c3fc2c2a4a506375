"""A working mini-Spark: RDDs, DAG scheduler, shuffle, and network layer.

Substitutes for Apache Spark 3.3 at the architectural level the paper
operates on. The RDD/DAG/shuffle core actually computes; the network
subpackage reproduces Spark's network-common layer (Table II message
types, TransportContext, BlockTransferService) on top of
:mod:`repro.netty`, which is where the MPI transports plug in.
"""

from repro.spark.conf import SparkConf
from repro.spark.context import SparkContext
from repro.spark.dag import DAGScheduler, Job, Stage
from repro.spark.local import LocalBackend, MapOutputRegistry
from repro.spark.partitioner import HashPartitioner, Partitioner, RangePartitioner
from repro.spark.rdd import (
    RDD,
    Aggregator,
    CoGroupedRDD,
    Dependency,
    GeneratedRDD,
    MapPartitionsRDD,
    NarrowDependency,
    ParallelCollectionRDD,
    ShuffleDependency,
    ShuffledRDD,
    TaskContext,
)
from repro.spark.standalone import StandaloneMaster, StandaloneWorker
from repro.spark.tracing import JobTrace, StageTrace, TraceRecorder

__all__ = [
    "SparkConf",
    "SparkContext",
    "RDD",
    "Aggregator",
    "Dependency",
    "NarrowDependency",
    "ShuffleDependency",
    "ParallelCollectionRDD",
    "GeneratedRDD",
    "MapPartitionsRDD",
    "ShuffledRDD",
    "CoGroupedRDD",
    "TaskContext",
    "Partitioner",
    "HashPartitioner",
    "RangePartitioner",
    "DAGScheduler",
    "Job",
    "Stage",
    "LocalBackend",
    "MapOutputRegistry",
    "TraceRecorder",
    "JobTrace",
    "StageTrace",
    "StandaloneMaster",
    "StandaloneWorker",
]
