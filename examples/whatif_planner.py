#!/usr/bin/env python
"""What-if capacity planner: answer perturbation questions from one trace.

Two modes:

* **Record mode** (no arguments): run one causally-traced fig9 GroupBy
  cell (28 GiB on 2 simulated Frontera workers, MPI4Spark-Basic), build
  its replay model, and — because the cell spec is known — compare
  the headline predictions ("2x NIC", "zero poll-tax") with real
  re-simulations with the knob changed in the simulator.  The ±10%
  agreement is checked by ``benchmarks/test_whatif.py``.

* **Trace mode** (``python examples/whatif_planner.py trace.jsonl``):
  load an exported flight-recorder log (``FlightRecorder.write``) and
  answer the questions analytically — no cluster, no re-simulation.
  The trace's ``run.meta`` header supplies transport and geometry.

Both modes print the sensitivity ranking (top knobs by predicted
speedup) and write ``results/whatif_planner.html``.  Both exit non-zero
if the unperturbed replay does not reproduce the recorded wall exactly:
then the model did not reconstruct the schedule and no prediction holds.

Run:  python examples/whatif_planner.py [trace.jsonl]
"""

import pathlib
import sys

from repro.harness.parallel import run_cell
from repro.harness.systems import FRONTERA
from repro.harness.whatif import truth_spec
from repro.obs import render_planner_page
from repro.obs.whatif import IDENTITY, Perturbation, ReplayModel, load_model
from repro.spark.deploy import SparkSimCluster
from repro.util.units import GiB, fmt_time
from repro.workloads.ohb import GROUP_BY

OUT = (
    pathlib.Path(__file__).resolve().parent.parent
    / "results"
    / "whatif_planner.html"
)

# Record-mode cell: the fig9 GroupBy 28 GiB / 2-worker / Basic cell at
# benchmark fidelity — the run whose poll-tax story the paper tells.
CELL = {
    "workload": GROUP_BY.name,
    "n_workers": 2,
    "data_bytes": 28 * GiB,
    "transport": "mpi-basic",
}
FIDELITY = 0.25

VALIDATED = (
    Perturbation(name="2x NIC", link_rate=2.0),
    Perturbation(name="zero poll-tax", poll_tax=0.0),
)


def record_cell():
    sim = SparkSimCluster(
        FRONTERA, CELL["n_workers"], CELL["transport"], obs_causal=True
    )
    sim.launch()
    profile = GROUP_BY.build_profile(
        FRONTERA, CELL["n_workers"], CELL["data_bytes"], fidelity=FIDELITY
    )
    result = sim.run_profile(profile)
    sim.shutdown()
    return result


def main() -> int:
    validation_rows = []

    if len(sys.argv) > 1:
        trace = sys.argv[1]
        model = load_model(trace)
        recorded = model.wall_s
        print(f"loaded {trace}: {model!r}")
    else:
        result = record_cell()
        model = ReplayModel.from_result(result)
        recorded = result.total_seconds
        print(
            f"recorded {CELL['workload']} {CELL['data_bytes'] // GiB} GiB / "
            f"{CELL['n_workers']} workers / {CELL['transport']}: "
            f"{fmt_time(recorded)}, {len(result.flight.events)} flight events"
        )

    # Self-test: the identity perturbation must reproduce the recorded
    # wall exactly — otherwise the replay model failed to reconstruct
    # the recorded schedule and no prediction can be trusted.
    identity = model.retime(IDENTITY)
    if identity.wall_s != recorded:
        print(
            f"FAIL: identity replay {identity.wall_s!r} != recorded "
            f"{recorded!r}",
            file=sys.stderr,
        )
        return 1
    print(f"identity replay reproduces the recorded wall exactly ({recorded:.4f}s)")

    print("\nsensitivity (top knobs by predicted speedup):")
    for pred in model.sensitivity(top_k=8):
        print(
            f"  {pred.perturbation.name:<18} {pred.perturbation.describe():<22} "
            f"wall {pred.wall_s:8.4f}s  speedup {pred.speedup:6.3f}x"
        )

    if len(sys.argv) <= 1:
        print("\nvalidating against ground-truth re-simulations:")
        for p in VALIDATED:
            pred = model.retime(p)
            sim_wall = run_cell(
                truth_spec(CELL, p, FIDELITY, FRONTERA.name)
            ).total_seconds
            err = pred.wall_s / sim_wall - 1.0
            validation_rows.append(
                {
                    "label": f"{CELL['transport']} {p.name}",
                    "predicted_s": pred.wall_s,
                    "simulated_s": sim_wall,
                }
            )
            print(
                f"  {p.name:<18} predicted {pred.wall_s:8.4f}s  "
                f"simulated {sim_wall:8.4f}s  error {err:+.2%}"
            )

    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(
        render_planner_page(
            model,
            validation_rows or None,
            title="what-if capacity planner — " + (model.meta.get("workload") or "trace"),
        )
    )
    print(f"\nplanner report: {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
