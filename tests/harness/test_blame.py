"""The blame wiring: proxy-cell specs, baseline paths, injection segments.

Fast structural tests only — nothing here simulates. The blame reports
run real cells in ``benchmarks/test_diff.py`` and ``examples/run_diff.py``.
"""

import pickle

import pytest

from repro.harness.blame import (
    BLAME_TRANSPORTS,
    baseline_path,
    blame_spec,
    record_cell_flight,
)


class TestBlameKnobs:
    def test_inject_rejects_unknown_segment(self):
        # validated before anything is simulated
        with pytest.raises(ValueError, match="'serialize' or 'poll-tax'"):
            record_cell_flight("mpi-opt", inject=("compute", 2.0))

    def test_blame_specs_are_primitive_causal_cells(self):
        for transport in BLAME_TRANSPORTS:
            spec = blame_spec(transport)
            assert spec.transport == transport
            assert spec.obs_causal is True  # causal recording on
            # pickles under any start method, its cost model included
            assert pickle.loads(pickle.dumps(spec)) == spec

    def test_baseline_paths_are_committed_recordings(self):
        for transport in BLAME_TRANSPORTS:
            path = baseline_path(transport)
            assert path.parts[0] == "baselines"
            assert path.suffixes == [".jsonl", ".gz"]
            # this repo commits all three
            assert path.exists(), path
