"""What-if truth cells are ordinary cached OHB cells.

The knobs are fields of the cell spec: they enter the run-cache key and
are resolved into the cost model the cell's cluster is built with.
One small cell (2 workers, 1 GiB, fidelity 0.05) carries every check.
"""

from __future__ import annotations

import json

import pytest

from repro.harness.parallel import OhbSpec, run_ohb_cell
from repro.harness.runcache import run_cache_stats, run_key
from repro.harness.whatif import truth_spec, validate_matrix
from repro.obs.whatif import IDENTITY, Perturbation
from repro.util.units import GiB

PLAIN = ("GroupByTest", 2, 1 * GiB, "mpi-basic", 0.05, "Frontera")
CELL = {
    "workload": PLAIN[0],
    "n_workers": PLAIN[1],
    "data_bytes": PLAIN[2],
    "transport": PLAIN[3],
    "figures": ["test"],
}
KNOBS = {
    "link_rate": 2.0,
    "poll_tax": 0.0,
    "serializer_rate": 2.0,
    "local_read_rate": 2.0,
}


def _cell_runs() -> int:
    return run_cache_stats()["cell_runs"]


def test_identity_spec_is_the_plain_tuple():
    identity = truth_spec(CELL, IDENTITY, PLAIN[4], PLAIN[5])
    assert identity == OhbSpec(*PLAIN)
    before = _cell_runs()
    plain = run_ohb_cell(PLAIN)
    again = run_ohb_cell(identity)
    assert _cell_runs() == before + 1
    assert again.total_seconds == plain.total_seconds


def test_each_knob_has_its_own_entry():
    keys = {run_key("ohb", OhbSpec(*PLAIN))}
    plain = run_ohb_cell(PLAIN)
    for knob, value in KNOBS.items():
        spec = OhbSpec(*PLAIN)._replace(**{knob: value})
        keys.add(run_key("ohb", spec))
        before = _cell_runs()
        perturbed = run_ohb_cell(spec)
        assert _cell_runs() == before + 1, f"{knob} served from another entry"
        assert perturbed.total_seconds != plain.total_seconds, knob
    assert len(keys) == 1 + len(KNOBS)
    # ...and the perturbed runs did not overwrite the unperturbed entry.
    before = _cell_runs()
    assert run_ohb_cell(PLAIN).total_seconds == plain.total_seconds
    assert _cell_runs() == before


def test_validate_matrix_twice_simulates_once_and_has_no_host_time():
    perturbations = (
        Perturbation(name="2x NIC", link_rate=2.0),
        Perturbation(name="zero poll-tax", poll_tax=0.0),
    )
    before = _cell_runs()
    first = validate_matrix([CELL], perturbations, fidelity=PLAIN[4])
    assert _cell_runs() == before + 1 + len(perturbations)
    second = validate_matrix([CELL], perturbations, fidelity=PLAIN[4])
    assert _cell_runs() == before + 1 + len(perturbations)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    assert first["summary"]["identity_all_exact"]
    assert "replay" not in first


@pytest.mark.parametrize(
    "perturbation",
    [Perturbation(name="2x cpu", compute=2.0), Perturbation(name="4 wide", executors=4)],
)
def test_truth_spec_rejects_analytic_only_knobs(perturbation):
    with pytest.raises(ValueError, match="analytic-only"):
        truth_spec(CELL, perturbation, PLAIN[4], PLAIN[5])
