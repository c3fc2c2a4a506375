"""Spark-UI-style run report: one self-contained HTML page per run set.

Renders what a Spark UI would show for a simulated job — a stage Gantt,
a per-transport message timeline, and the causal critical-path breakdown
— from the flight-recorder log alone.  Everything is inline (CSS + SVG,
no scripts, no external assets), so the page can be committed, attached
to CI as an artifact, or mailed around as a single file.

Entry points: :func:`render_report` returns the HTML for a list of
``(RunResult, CriticalPathReport)`` pairs; :func:`write_report` writes it
next to the ``BENCH_*.json`` results.  ``examples/obs_report.py`` builds
one for a small GroupBy run; the harness writes one per figure run built
with ``obs_causal=True``.
"""

from __future__ import annotations

import html
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.obs.critpath import SEGMENTS, CriticalPathReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.flightrec import FlightRecorder
    from repro.obs.whatif import Prediction, ReplayModel
    from repro.spark.deploy import RunResult

# Keep pages small: the message timeline draws at most this many spans,
# decimated evenly across the run (the page notes how many were dropped).
TIMELINE_MAX_SPANS = 2000

_SEGMENT_COLORS = {
    "compute": "#4c78a8",
    "serialize": "#72b7b2",
    "queue": "#eeca3b",
    "wire": "#54a24b",
    "poll-tax": "#e45756",
    "fetch-wait": "#b279a2",
    "sched-wait": "#ff9da6",
}

_CSS = """
body { font: 13px/1.45 -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2em auto; max-width: 980px; color: #1a1a2e; }
h1 { font-size: 1.5em; border-bottom: 2px solid #1a1a2e; padding-bottom: .2em; }
h2 { font-size: 1.15em; margin-top: 1.8em; }
table { border-collapse: collapse; margin: .8em 0; }
th, td { border: 1px solid #ccc; padding: .25em .6em; text-align: right; }
th { background: #f0f0f5; }
td.l, th.l { text-align: left; }
.legend span { display: inline-block; margin-right: 1.2em; }
.legend i { display: inline-block; width: .9em; height: .9em;
            margin-right: .35em; vertical-align: -0.1em; }
.note { color: #666; font-size: .92em; }
svg { background: #fafafc; border: 1px solid #ddd; }
"""


def _esc(s: object) -> str:
    return html.escape(str(s))


def _page(title: str, body: str) -> str:
    """One self-contained page: the shared head and CSS, ``title``, ``body``."""
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        f"<body><h1>{_esc(title)}</h1>{body}</body></html>"
    )


def _write(path: str, page: str) -> str:
    with open(path, "w") as fh:
        fh.write(page)
    return path


def _decimate(items: Sequence, limit: int) -> list:
    if len(items) <= limit:
        return list(items)
    step = len(items) / limit
    return [items[int(i * step)] for i in range(limit)]


def _gantt_svg(flight: "FlightRecorder", width: int = 920) -> str:
    """Stage Gantt from stage.start / stage.finish event pairs."""
    bars = [
        (label, start.t, finish.t)
        for label, start, finish in flight.index().stage_pairs
    ]
    if not bars:
        return "<p class='note'>no stage events in the flight log</p>"
    t0 = min(b[1] for b in bars)
    t1 = max(b[2] for b in bars)
    span = max(t1 - t0, 1e-12)
    row_h, pad_l, pad_t = 26, 190, 8
    h = pad_t * 2 + row_h * len(bars) + 18
    sx = (width - pad_l - 12) / span
    parts = [
        f"<svg width='{width}' height='{h}' "
        f"xmlns='http://www.w3.org/2000/svg'>"
    ]
    for i, (label, s, e) in enumerate(bars):
        y = pad_t + i * row_h
        x = pad_l + (s - t0) * sx
        w = max((e - s) * sx, 1.5)
        parts.append(
            f"<text x='{pad_l - 8}' y='{y + 15}' text-anchor='end' "
            f"font-size='11'>{_esc(label)}</text>"
        )
        parts.append(
            f"<rect x='{x:.1f}' y='{y + 3}' width='{w:.1f}' height='{row_h - 8}' "
            f"fill='#4c78a8' rx='2'><title>{_esc(label)}: "
            f"{s - t0:.4f}s → {e - t0:.4f}s ({e - s:.4f}s)</title></rect>"
        )
    parts.append(
        f"<text x='{pad_l}' y='{h - 4}' font-size='10' fill='#666'>0s</text>"
        f"<text x='{width - 12}' y='{h - 4}' font-size='10' fill='#666' "
        f"text-anchor='end'>{span:.4f}s</text></svg>"
    )
    return "".join(parts)


def _timeline_svg(
    flight: "FlightRecorder", width: int = 920, max_spans: int = TIMELINE_MAX_SPANS
) -> str:
    """Message timeline: one line per traced message, send → recv/match."""
    index = flight.index()
    sends = index.send
    closes = index.close_first  # a line ends at the first recv or match
    spans = [s for s in sends if s in closes]
    if not spans:
        return "<p class='note'>no completed message spans in the flight log</p>"
    total = len(spans)
    spans = _decimate(spans, max_spans)
    t0 = min(sends[s].t for s in spans)
    t1 = max(closes[s] for s in spans)
    tspan = max(t1 - t0, 1e-12)
    pad_l, pad_t, h_rows = 50, 8, max(120, min(420, len(spans)))
    h = pad_t * 2 + h_rows + 18
    sx = (width - pad_l - 12) / tspan
    parts = [
        f"<svg width='{width}' height='{h}' "
        f"xmlns='http://www.w3.org/2000/svg'>"
    ]
    for i, s in enumerate(spans):
        ev = sends[s]
        y = pad_t + (i / max(len(spans) - 1, 1)) * h_rows
        x0 = pad_l + (ev.t - t0) * sx
        x1 = pad_l + (closes[s] - t0) * sx
        body_leg = ev.attrs.get("leg") == "mpi-body"
        color = "#e45756" if body_leg else "#4c78a8"
        parts.append(
            f"<line x1='{x0:.1f}' y1='{y:.1f}' x2='{max(x1, x0 + 1):.1f}' "
            f"y2='{y:.1f}' stroke='{color}' stroke-width='1.1'>"
            f"<title>type={ev.attrs.get('type')} "
            f"{ev.attrs.get('nbytes', 0)}B {closes[s] - ev.t:.6f}s"
            f"{' (MPI body leg)' if body_leg else ''}</title></line>"
        )
    dropped = total - len(spans)
    note = f" ({dropped} of {total} spans decimated out)" if dropped else ""
    parts.append(
        f"<text x='{pad_l}' y='{h - 4}' font-size='10' fill='#666'>0s</text>"
        f"<text x='{width - 12}' y='{h - 4}' font-size='10' fill='#666' "
        f"text-anchor='end'>{tspan:.4f}s</text></svg>"
        f"<p class='note'>{total} message spans{note}; "
        "red lines are mpi-opt MPI body legs.</p>"
    )
    return "".join(parts)


def _critpath_table(report: CriticalPathReport) -> str:
    """The per-stage segment table plus a stacked share bar."""
    head = (
        "<tr><th class='l'>stage</th><th class='l'>critical task</th>"
        + "".join(f"<th>{_esc(seg)}</th>" for seg in SEGMENTS)
        + "<th>total</th></tr>"
    )
    rows = []
    for s in report.stages:
        rows.append(
            f"<tr><td class='l'>{_esc(s.stage)}</td><td class='l'>{_esc(s.task)}</td>"
            + "".join(f"<td>{s.seconds(seg):.4f}</td>" for seg in SEGMENTS)
            + f"<td>{s.total_s:.4f}</td></tr>"
        )
    rows.append(
        "<tr><th class='l'>TOTAL</th><th></th>"
        + "".join(f"<th>{report.segment_seconds(seg):.4f}</th>" for seg in SEGMENTS)
        + f"<th>{report.total_seconds:.4f}</th></tr>"
    )
    bar = ["<svg width='920' height='26' xmlns='http://www.w3.org/2000/svg'>"]
    x = 0.0
    for seg in SEGMENTS:
        share = report.share(seg)
        if share <= 0:
            continue
        w = share * 920
        bar.append(
            f"<rect x='{x:.1f}' y='2' width='{max(w, 1):.1f}' height='20' "
            f"fill='{_SEGMENT_COLORS[seg]}'><title>{_esc(seg)}: "
            f"{share:.1%}</title></rect>"
        )
        x += w
    bar.append("</svg>")
    legend = "".join(
        f"<span><i style='background:{_SEGMENT_COLORS[seg]}'></i>"
        f"{_esc(seg)} {report.share(seg):.1%}</span>"
        for seg in SEGMENTS
    )
    return (
        f"<table>{head}{''.join(rows)}</table>"
        f"{''.join(bar)}<p class='legend'>{legend}</p>"
    )


def _sensitivity_table(predictions: Sequence["Prediction"]) -> str:
    """Capacity-planner ranking: top knobs by predicted speedup."""
    if not predictions:
        return "<p class='note'>no perturbations evaluated</p>"
    head = (
        "<tr><th class='l'>what if…</th><th class='l'>knobs</th>"
        "<th>predicted wall</th><th>Δ wall</th><th>speedup</th></tr>"
    )
    base = predictions[0].baseline_s
    max_gain = max((base - p.wall_s for p in predictions), default=0.0)
    rows = []
    for p in predictions:
        gain = base - p.wall_s
        bar_w = int(120 * gain / max_gain) if max_gain > 0 and gain > 0 else 0
        bar = (
            f"<svg width='124' height='12' style='background:none;border:none'>"
            f"<rect x='0' y='1' width='{bar_w}' height='10' fill='#54a24b'/></svg>"
            if bar_w
            else ""
        )
        rows.append(
            f"<tr><td class='l'>{_esc(p.perturbation.name)} {bar}</td>"
            f"<td class='l'>{_esc(p.perturbation.describe())}</td>"
            f"<td>{p.wall_s:.4f}s</td><td>{p.wall_s - base:+.4f}s</td>"
            f"<td>{p.speedup:.3f}x</td></tr>"
        )
    return (
        f"<p class='note'>recorded wall {base:.4f}s; rows ranked by "
        f"predicted speedup (analytic replay, no re-simulation)</p>"
        f"<table>{head}{''.join(rows)}</table>"
    )


def _pred_vs_sim_scatter(
    rows: Sequence[dict], width: int = 460, tolerance: float = 0.10
) -> str:
    """Predicted-vs-simulated scatter with the y=x line and ±tol band.

    ``rows`` are validation rows (``predicted_s`` / ``simulated_s`` plus
    an optional ``label``), e.g. the cells of ``BENCH_whatif.json``.
    """
    pts = [
        (r["simulated_s"], r["predicted_s"], r.get("label", ""))
        for r in rows
        if r.get("simulated_s") and r.get("predicted_s")
    ]
    if not pts:
        return "<p class='note'>no validation rows</p>"
    hi = max(max(x, y) for x, y, _ in pts) * 1.06
    pad, h = 44, width
    sx = (width - pad - 10) / hi
    sy = (h - pad - 10) / hi

    def X(v: float) -> float:
        return pad + v * sx

    def Y(v: float) -> float:
        return h - pad - v * sy

    parts = [
        f"<svg width='{width}' height='{h}' xmlns='http://www.w3.org/2000/svg'>",
        f"<line x1='{X(0):.1f}' y1='{Y(0):.1f}' x2='{X(hi):.1f}' "
        f"y2='{Y(hi):.1f}' stroke='#999' stroke-width='1'/>",
        f"<line x1='{X(0):.1f}' y1='{Y(0):.1f}' x2='{X(hi):.1f}' "
        f"y2='{Y(hi * (1 + tolerance)):.1f}' stroke='#ccc' "
        "stroke-dasharray='4 3'/>",
        f"<line x1='{X(0):.1f}' y1='{Y(0):.1f}' x2='{X(hi):.1f}' "
        f"y2='{Y(hi * (1 - tolerance)):.1f}' stroke='#ccc' "
        "stroke-dasharray='4 3'/>",
    ]
    for x, y, label in pts:
        ok = abs(y / x - 1.0) <= tolerance if x > 0 else False
        color = "#4c78a8" if ok else "#e45756"
        parts.append(
            f"<circle cx='{X(x):.1f}' cy='{Y(y):.1f}' r='3.2' fill='{color}' "
            f"fill-opacity='0.75'><title>{_esc(label)}: sim {x:.4f}s, "
            f"pred {y:.4f}s ({y / x - 1.0:+.1%})</title></circle>"
        )
    parts.append(
        f"<text x='{width / 2:.0f}' y='{h - 6}' font-size='11' fill='#666' "
        "text-anchor='middle'>simulated wall (s)</text>"
        f"<text x='12' y='{h / 2:.0f}' font-size='11' fill='#666' "
        f"transform='rotate(-90 12 {h / 2:.0f})' text-anchor='middle'>"
        "predicted wall (s)</text></svg>"
        f"<p class='note'>diagonal = perfect prediction; dashed = "
        f"±{tolerance:.0%} gate; red points are out of band.</p>"
    )
    return "".join(parts)


def planner_section(
    model: "ReplayModel",
    validation_rows: Sequence[dict] | None = None,
    top_k: int = 8,
) -> str:
    """The capacity-planner fragment: sensitivity ranking (+ scatter)."""
    body = ["<h3>capacity planner (what-if replay)</h3>"]
    body.append(_sensitivity_table(model.sensitivity(top_k=top_k)))
    buckets = model.bucket_seconds()
    total = sum(buckets.values()) or 1.0
    comp = " · ".join(
        f"{name} {secs / total:.1%}" for name, secs in buckets.items() if secs > 0
    )
    body.append(
        f"<p class='note'>task-seconds composition: {comp} "
        f"(DESIGN.md §14 for the model and its blind spots)</p>"
    )
    if validation_rows:
        body.append("<h3>predicted vs simulated (validation)</h3>")
        body.append(_pred_vs_sim_scatter(validation_rows))
    return "".join(body)


def render_planner_page(
    model: "ReplayModel",
    validation_rows: Sequence[dict] | None = None,
    title: str = "what-if capacity planner",
    top_k: int = 8,
) -> str:
    """A standalone capacity-planner page for one replay model.

    Used by ``examples/whatif_planner.py`` when planning from a bare
    JSONL trace (no live :class:`RunResult` to build the full run report
    around).  ``validation_rows`` adds the predicted-vs-simulated
    scatter, e.g. the flattened cells of ``results/BENCH_whatif.json``.
    """
    meta = model.meta
    bits = [f"transport <b>{_esc(model.transport)}</b>"]
    if meta.get("workload"):
        bits.insert(0, f"workload <b>{_esc(meta['workload'])}</b>")
    if meta.get("system"):
        bits.append(_esc(meta["system"]))
    bits.append(
        f"{model.n_executors} executors x {model.slots_per_executor} slots"
    )
    bits.append(f"recorded wall <b>{model.wall_s:.4f}s</b>")
    header = "<p>" + " · ".join(bits) + "</p>"
    return _page(title, header + planner_section(model, validation_rows, top_k=top_k))


def _gantt_pair_svg(
    flight_a: "FlightRecorder",
    flight_b: "FlightRecorder",
    a_label: str,
    b_label: str,
    width: int = 920,
) -> str:
    """Side-by-side stage Gantt: two thin bars per stage row, A over B.

    Each run is normalized to its own t=0 and both share one time scale,
    so a stage that slid or stretched is visible directly; stages present
    on one side only render a single bar (the structural mismatch).
    """
    from repro.obs.critpath import stage_bounds

    bounds_a = stage_bounds(flight_a)
    bounds_b = stage_bounds(flight_b)
    labels = list(bounds_a) + [s for s in bounds_b if s not in bounds_a]
    if not labels:
        return "<p class='note'>no stage events in either flight log</p>"
    t0_a = min((b[0] for b in bounds_a.values()), default=0.0)
    t0_b = min((b[0] for b in bounds_b.values()), default=0.0)
    span = max(
        max((b[1] - t0_a for b in bounds_a.values()), default=0.0),
        max((b[1] - t0_b for b in bounds_b.values()), default=0.0),
        1e-12,
    )
    row_h, bar_h, pad_l, pad_t = 30, 10, 190, 24
    h = pad_t + row_h * len(labels) + 22
    sx = (width - pad_l - 12) / span
    colors = {"a": "#4c78a8", "b": "#f58518"}
    parts = [
        f"<svg width='{width}' height='{h}' "
        f"xmlns='http://www.w3.org/2000/svg'>",
        f"<text x='{pad_l}' y='14' font-size='11' fill='{colors['a']}'>"
        f"■ {_esc(a_label)}</text>",
        f"<text x='{pad_l + 140}' y='14' font-size='11' fill='{colors['b']}'>"
        f"■ {_esc(b_label)}</text>",
    ]
    for i, label in enumerate(labels):
        y = pad_t + i * row_h
        parts.append(
            f"<text x='{pad_l - 8}' y='{y + 16}' text-anchor='end' "
            f"font-size='11'>{_esc(label)}</text>"
        )
        for key, bounds, t0, dy in (
            ("a", bounds_a, t0_a, 2), ("b", bounds_b, t0_b, 4 + bar_h),
        ):
            if label not in bounds:
                continue
            s, e, _n = bounds[label]
            x = pad_l + (s - t0) * sx
            w = max((e - s) * sx, 1.5)
            parts.append(
                f"<rect x='{x:.1f}' y='{y + dy}' width='{w:.1f}' "
                f"height='{bar_h}' fill='{colors[key]}' rx='2'>"
                f"<title>{_esc(label)} [{key.upper()}]: {s - t0:.4f}s → "
                f"{e - t0:.4f}s ({e - s:.4f}s)</title></rect>"
            )
    parts.append(
        f"<text x='{pad_l}' y='{h - 4}' font-size='10' fill='#666'>0s</text>"
        f"<text x='{width - 12}' y='{h - 4}' font-size='10' fill='#666' "
        f"text-anchor='end'>{span:.4f}s</text></svg>"
    )
    return "".join(parts)


def _waterfall_svg(diff, width: int = 920) -> str:
    """Delta waterfall: each attribution term walks 0 → wall delta.

    Bars run left-to-right in blame order (largest |Δ| first); red bars
    push B slower, green bars pull it faster, and the grey terminal bar
    is the measured wall delta the terms provably sum to.
    """
    contribs = diff.contributions()
    if not contribs:
        return "<p class='note'>identical runs: nothing to attribute</p>"
    terms = [(name, delta) for _kind, name, delta in contribs]
    terms.append(("wall delta", diff.wall_delta_s))
    lo, hi, cum = 0.0, 0.0, 0.0
    for name, delta in terms[:-1]:
        cum += delta
        lo, hi = min(lo, cum), max(hi, cum)
    lo, hi = min(lo, diff.wall_delta_s, 0.0), max(hi, diff.wall_delta_s, 0.0)
    span = max(hi - lo, 1e-12)
    row_h, pad_l, pad_t = 26, 190, 8
    h = pad_t * 2 + row_h * len(terms) + 18
    sx = (width - pad_l - 12) / span

    def X(v: float) -> float:
        return pad_l + (v - lo) * sx

    parts = [
        f"<svg width='{width}' height='{h}' "
        f"xmlns='http://www.w3.org/2000/svg'>",
        f"<line x1='{X(0):.1f}' y1='{pad_t}' x2='{X(0):.1f}' "
        f"y2='{h - 18}' stroke='#999' stroke-dasharray='3 3'/>",
    ]
    cum = 0.0
    for i, (name, delta) in enumerate(terms):
        y = pad_t + i * row_h
        last = i == len(terms) - 1
        x0, x1 = (0.0, delta) if last else (cum, cum + delta)
        if not last:
            cum += delta
        color = "#888" if last else ("#e45756" if delta > 0 else "#54a24b")
        parts.append(
            f"<text x='{pad_l - 8}' y='{y + 15}' text-anchor='end' "
            f"font-size='11'>{_esc(name)}</text>"
        )
        parts.append(
            f"<rect x='{X(min(x0, x1)):.1f}' y='{y + 4}' "
            f"width='{max(abs(x1 - x0) * sx, 1):.1f}' height='{row_h - 10}' "
            f"fill='{color}' rx='2'><title>{_esc(name)}: {delta:+.4f}s"
            f"</title></rect>"
        )
    parts.append(
        f"<text x='{pad_l}' y='{h - 4}' font-size='10' fill='#666'>"
        f"{lo:+.4f}s</text>"
        f"<text x='{width - 12}' y='{h - 4}' font-size='10' fill='#666' "
        f"text-anchor='end'>{hi:+.4f}s</text></svg>"
    )
    return "".join(parts)


def _diff_table(diff) -> str:
    """Per-stage walls, per-segment deltas and residuals."""
    head = (
        "<tr><th class='l'>stage</th><th>a wall</th><th>b wall</th>"
        "<th>Δ</th>"
        + "".join(f"<th>Δ {_esc(seg)}</th>" for seg in SEGMENTS)
        + "<th>residual</th></tr>"
    )
    rows = []
    for s in diff.stages:
        rows.append(
            f"<tr><td class='l'>{_esc(s.stage)}</td>"
            f"<td>{s.a_wall_s:.4f}</td><td>{s.b_wall_s:.4f}</td>"
            f"<td>{s.delta_s:+.4f}</td>"
            + "".join(
                f"<td>{s.segment_delta(seg):+.4f}</td>" for seg in SEGMENTS
            )
            + f"<td>{s.residual_s:+.4f}</td></tr>"
        )
    rows.append(
        "<tr><th class='l'>TOTAL</th>"
        f"<th>{diff.a_wall_s:.4f}</th><th>{diff.b_wall_s:.4f}</th>"
        f"<th>{diff.wall_delta_s:+.4f}</th>"
        + "".join(
            f"<th>{diff.segment_delta(seg):+.4f}</th>" for seg in SEGMENTS
        )
        + f"<th>{diff.residual_s:+.4f}</th></tr>"
    )
    return f"<table>{head}{''.join(rows)}</table>"


def render_diff_page(
    diff,
    flight_a: "FlightRecorder | None" = None,
    flight_b: "FlightRecorder | None" = None,
    title: str = "differential run analysis",
) -> str:
    """A standalone blame-report page for one run diff.

    This is the page ``examples/run_diff.py`` writes: the side-by-side
    stage Gantt, the per-segment delta waterfall and the attribution
    table, self-contained in one HTML file.
    """
    body = [
        f"<p><b>{_esc(diff.a_label)}</b> [{_esc(diff.transport_a)}] "
        f"{diff.a_wall_s:.4f}s → <b>{_esc(diff.b_label)}</b> "
        f"[{_esc(diff.transport_b)}] {diff.b_wall_s:.4f}s · wall delta "
        f"<b>{diff.wall_delta_s:+.4f}s</b></p>"
    ]
    mism = diff.meta_mismatches()
    if mism:
        body.append(
            "<p class='note'>meta drift: "
            + " · ".join(
                f"{_esc(k)} {_esc(a)} → {_esc(b)}" for k, (a, b) in mism.items()
            )
            + "</p>"
        )
    nodes = list(diff.structural) + [n for s in diff.stages for n in s.nodes]
    if nodes:
        body.append(
            "<p><b>structural mismatches</b></p><ul>"
            + "".join(
                f"<li>[{_esc(n.kind)}] {_esc(n.stage)}: {_esc(n.detail)}"
                + (f" ({n.delta_s:+.4f}s)" if n.delta_s else "")
                + "</li>"
                for n in nodes
            )
            + "</ul>"
        )
    if flight_a is not None and flight_b is not None:
        body.append(
            "<h3>stage Gantt (side by side)</h3>"
            + _gantt_pair_svg(flight_a, flight_b, diff.a_label, diff.b_label)
        )
    body.append("<h3>delta waterfall</h3>" + _waterfall_svg(diff))
    body.append("<h3>per-stage attribution</h3>" + _diff_table(diff))
    top = diff.top_contributor()
    if top is not None:
        body.append(
            f"<p>top contributor: <b>{_esc(top)}</b> — attribution terms "
            "sum to the measured wall delta (DESIGN.md §16 for the "
            "residual contract).</p>"
        )
    return _page(title, "".join(body))


def write_diff_report(
    path: str,
    diff,
    flight_a: "FlightRecorder | None" = None,
    flight_b: "FlightRecorder | None" = None,
    title: str = "differential run analysis",
) -> str:
    """Render and write the blame page; returns ``path`` for chaining."""
    return _write(path, render_diff_page(diff, flight_a, flight_b, title=title))


def render_report(
    runs: Iterable[tuple["RunResult", CriticalPathReport]],
    title: str = "repro run report",
) -> str:
    """The full page: one section per (result, critical-path) pair."""
    sections = []
    for result, cp in runs:
        flight = result.flight
        stage_rows = "".join(
            f"<tr><td class='l'>{_esc(label)}</td><td>{secs:.4f}</td></tr>"
            for label, secs in result.stage_seconds.items()
        )
        meta = (
            f"<p>workload <b>{_esc(result.workload)}</b> · system "
            f"{_esc(result.system)} · {result.n_workers} workers · "
            f"{result.total_cores} cores · total "
            f"<b>{result.total_seconds:.4f}s</b>"
        )
        if flight is not None:
            meta += (
                f" · {len(flight.events)} flight events"
                + (f" ({flight.dropped} dropped)" if flight.dropped else "")
            )
        meta += "</p>"
        body = [f"<h2>transport: {_esc(result.transport)}</h2>", meta]
        body.append(
            f"<table><tr><th class='l'>stage</th><th>seconds</th></tr>"
            f"{stage_rows}</table>"
        )
        if flight is not None:
            body.append("<h3>stage Gantt</h3>" + _gantt_svg(flight))
            body.append("<h3>message timeline</h3>" + _timeline_svg(flight))
        body.append("<h3>critical path</h3>" + _critpath_table(cp))
        if flight is not None:
            from repro.obs.whatif import ReplayModel

            try:
                model = ReplayModel.from_result(result)
            except ValueError:
                # e.g. a multi-tenant job-server trace: no planner section.
                pass
            else:
                body.append(planner_section(model))
        sections.append("".join(body))
    return _page(title, "".join(sections))


def write_report(
    path: str,
    runs: Iterable[tuple["RunResult", CriticalPathReport]],
    title: str = "repro run report",
) -> str:
    """Render and write the page; returns ``path`` for chaining."""
    return _write(path, render_report(runs, title=title))
