"""Rendering of experiment results in the paper's shape."""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Sequence

from repro.harness.experiments import HiBenchCell, OhbCell
from repro.harness.pingpong import PingPongResult
from repro.obs import loop_busy_fraction, polling_tax_seconds
from repro.util.units import fmt_bytes, fmt_time

LEGEND = {"nio": "IPoIB", "rdma": "RDMA", "mpi-opt": "MPI", "mpi-basic": "MPI-Basic"}


def render_table(rows: Sequence[dict[str, str]], title: str = "") -> str:
    """Plain-text table from a list of homogeneous dicts."""
    if not rows:
        return f"{title}\n(empty)"
    cols: list[str] = []
    for r in rows:
        for c in r:
            if c not in cols:
                cols.append(c)
    widths = {
        c: max(len(c), max(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(c.ljust(widths[c]) for c in cols)
    lines.append(header)
    lines.append("-+-".join("-" * widths[c] for c in cols))
    for r in rows:
        lines.append(" | ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines)


def render_fig8(results: dict[str, PingPongResult]) -> str:
    """Fig-8 latency table: NIO vs Netty+MPI with speedups."""
    nio = results["netty-nio"]
    mpi = results["netty-mpi"]
    rows = []
    for size in sorted(nio.latency_s):
        rows.append(
            {
                "Message size": fmt_bytes(size),
                "Netty (NIO)": fmt_time(nio.latency_s[size]),
                "Netty+MPI": fmt_time(mpi.latency_s[size]),
                "Speedup": f"{nio.latency_s[size] / mpi.latency_s[size]:.2f}x",
            }
        )
    return render_table(
        rows, "Fig 8 — Netty ping-pong latency (internal cluster, IB-EDR)"
    )


def _group_ohb(cells: Iterable[OhbCell]):
    grouped: dict[tuple[str, int, int], dict[str, OhbCell]] = defaultdict(dict)
    for cell in cells:
        grouped[(cell.workload, cell.n_workers, cell.data_bytes)][cell.transport] = cell
    return grouped


def render_ohb(cells: Iterable[OhbCell], title: str) -> str:
    """OHB breakdown table with the paper's stage labels and speedups."""
    rows = []
    for (workload, n_workers, data), per_t in sorted(_group_ohb(cells).items()):
        for transport, cell in per_t.items():
            row = {
                "Workload": workload,
                "Workers": str(n_workers),
                "Cores": str(cell.total_cores),
                "Data": fmt_bytes(data),
                "Transport": LEGEND.get(transport, transport),
            }
            for label, secs in cell.result.stage_seconds.items():
                row[label] = fmt_time(secs)
            row["Total"] = fmt_time(cell.total_seconds)
            snap = cell.result.metrics
            if snap is not None:
                # Measured CPU seconds burned in selectNow+MPI_Iprobe spins
                # (Sec. VI-D) and the event loops' mean busy fraction.
                row["Poll tax"] = fmt_time(polling_tax_seconds(snap))
                row["Loop busy"] = f"{100.0 * loop_busy_fraction(snap):.1f}%"
            if "nio" in per_t and transport != "nio":
                row["vs IPoIB"] = (
                    f"{per_t['nio'].total_seconds / cell.total_seconds:.2f}x"
                )
            else:
                row["vs IPoIB"] = ""
            rows.append(row)
    return render_table(rows, title)


def ohb_speedups(cells: Iterable[OhbCell]) -> dict:
    """Machine-readable speedups: {(workload, workers): {pair: ratio}}."""
    out = {}
    for key, per_t in _group_ohb(cells).items():
        entry = {}
        mpi = per_t.get("mpi-opt")
        if mpi is not None:
            if "nio" in per_t:
                entry["total_mpi_vs_vanilla"] = (
                    per_t["nio"].total_seconds / mpi.total_seconds
                )
                entry["read_mpi_vs_vanilla"] = (
                    per_t["nio"].result.shuffle_read_seconds()
                    / mpi.result.shuffle_read_seconds()
                )
            if "rdma" in per_t:
                entry["total_mpi_vs_rdma"] = (
                    per_t["rdma"].total_seconds / mpi.total_seconds
                )
                entry["read_mpi_vs_rdma"] = (
                    per_t["rdma"].result.shuffle_read_seconds()
                    / mpi.result.shuffle_read_seconds()
                )
        out[(key[0], key[1])] = entry
    return out


def hibench_speedups(cells: Iterable[HiBenchCell]) -> dict:
    grouped: dict[tuple[str, str], dict[str, float]] = defaultdict(dict)
    for cell in cells:
        grouped[(cell.system, cell.workload)][cell.transport] = cell.total_seconds
    return {
        key: {
            "mpi_vs_vanilla": per_t["nio"] / per_t["mpi-opt"],
            **(
                {"mpi_vs_rdma": per_t["rdma"] / per_t["mpi-opt"]}
                if "rdma" in per_t
                else {}
            ),
        }
        for key, per_t in grouped.items()
        if "nio" in per_t and "mpi-opt" in per_t
    }
