"""One stage loop, three drivers: they must return the same simulated run.

``SparkSimCluster.run_profile``, a fault-free
``ResilientScheduler.run_profile`` and a single ungated whole-cluster
``run_application`` all execute ``SparkSimCluster._stage_loop`` over the
same ``SimExecutor.task_body``. Same seed and profile therefore mean the
same stage seconds and the same remote shuffle volume, bit for bit, on
every transport — the fence around "three loops that must agree".
"""

import pytest

from repro.faults import ResilientScheduler
from repro.faults.chaos import make_chaos_profile
from repro.harness.systems import INTERNAL_CLUSTER
from repro.spark.deploy import SparkSimCluster
from repro.transports import TRANSPORTS
from repro.util.units import MiB

N_WORKERS = 4
CORES = 4


def _via_run_profile(sim, profile):
    return sim.run_profile(profile).stage_seconds


def _via_resilient(sim, profile):
    return ResilientScheduler(sim).run_profile(profile).stage_seconds


def _via_run_application(sim, profile):
    app = sim.register_app(0)
    driver = sim.env.process(sim.run_application(profile, app), name="app-driver")
    sim.env.run(until=driver)
    return driver.value


DRIVERS = {
    "run_profile": _via_run_profile,
    "resilient": _via_resilient,
    "run_application": _via_run_application,
}


def run_all_drivers(transport, tasks_per_executor):
    """``{driver: (stage_seconds, remote bytes fetched)}`` on fresh clusters."""
    out = {}
    for name, drive in DRIVERS.items():
        sim = SparkSimCluster(
            INTERNAL_CLUSTER, N_WORKERS, transport, cores_per_executor=CORES, seed=3
        )
        sim.launch()
        profile = make_chaos_profile(N_WORKERS, tasks_per_executor, 256 * MiB)
        stage_seconds = dict(drive(sim, profile))
        remote = sum(ex.bytes_fetched_remote for ex in sim.executors)
        sim.shutdown()
        out[name] = (stage_seconds, remote)
    return out


# tasks per executor == cores: one wave on the socket transports (the
# polling tax already makes mpi-basic queue); 3x cores: tasks > slots
# everywhere, so later waves start when earlier tasks release their slots.
@pytest.mark.parametrize("tasks_per_executor", [CORES, 3 * CORES])
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_three_drivers_return_the_same_run(transport, tasks_per_executor):
    runs = run_all_drivers(transport, tasks_per_executor)
    reference_seconds, reference_remote = runs["run_profile"]
    assert set(reference_seconds) == {"gen", "write", "read"}
    assert reference_remote > 0
    for name, (stage_seconds, remote) in runs.items():
        assert stage_seconds == reference_seconds, name  # exact, not approx
        assert remote == reference_remote, name
