"""The measurement CSV, speedups, energy efficiency and the Pareto frontier."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import ReportError
from .explore import Measurement

CSV_HEADER = "Version/Measure,Signature,Time Expended(ms.),Energy Consumption(J.)"

BASELINE_SIGNATURE_TEXT = "0, 0, 0"


def is_baseline(signature_text: str) -> bool:
    """The untransformed program: every `|`-separated part of the signature
    (one per enumerated check block) is 0, 0, 0."""
    return all(part.strip() == BASELINE_SIGNATURE_TEXT
               for part in signature_text.split("|"))


def _fmt(value: float) -> str:
    """Up to two fractional digits, trailing zeros trimmed."""
    text = "%.2f" % value
    return text.rstrip("0").rstrip(".")


def write_csv(measurements: list[Measurement]) -> str:
    """Table-style CSV: baseline rows first, then ascending time; failed rows
    keep empty time/energy cells plus a trailing reason column."""
    if not measurements:
        raise ReportError("no measurements to report")

    def key(m: Measurement):
        return (0 if is_baseline(m.signature_text) else 1,
                m.time_ms if m.time_ms is not None else float("inf"))

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    buf.write(CSV_HEADER + "\n")
    for m in sorted(measurements, key=key):
        if m.failed:
            writer.writerow([m.name, m.signature_text, "", "", m.reason])
        else:
            writer.writerow([m.name, m.signature_text, _fmt(m.time_ms),
                             _fmt(m.energy_J)])
    return buf.getvalue()


def parse_csv(text: str) -> list[Measurement]:
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ReportError("missing or malformed CSV header (expected %r)"
                          % CSV_HEADER)
    out = []
    for row in csv.reader(io.StringIO("\n".join(lines[1:]))):
        if not row:
            continue
        if len(row) not in (4, 5):
            raise ReportError("malformed CSV row: %r" % (row,))
        name, sig, t, e = row[0], row[1], row[2], row[3]
        if t == "" and e == "":
            out.append(Measurement.failure(name, sig,
                                           row[4] if len(row) > 4 else ""))
            continue
        try:
            time_ms, energy = float(t), float(e)
        except ValueError:
            raise ReportError("non-numeric measurement in row: %r" % (row,))
        if not all(math.isfinite(v) and v >= 0 for v in (time_ms, energy)):
            raise ReportError("measurement is not finite and non-negative "
                              "in row: %r" % (row,))
        out.append(Measurement(name, sig, time_ms, energy,
                               [(time_ms, energy)]))
    return out


def speedup(baseline: Measurement, variant: Measurement) -> float:
    """baseline time over variant time; slowdowns come out below 1."""
    if variant.time_ms is None or variant.time_ms <= 0:
        raise ReportError("variant %r has no positive time" % variant.name)
    if baseline.time_ms is None:
        raise ReportError("baseline has no time")
    return baseline.time_ms / variant.time_ms


@dataclass
class TradeoffPoint:
    variant: str
    time_ms: float
    energy_J: float
    dominated: bool = False


def pareto_frontier(points: list[TradeoffPoint]) -> list[TradeoffPoint]:
    """Non-dominated subset (minimizing both axes), input order preserved.

    Sort-and-sweep: after ordering by (time, energy), a point is dominated
    exactly when some earlier point has energy <= its own, except for
    exact duplicates of a frontier point.
    """
    for p in points:
        p.dominated = False
    indexed = sorted(range(len(points)),
                     key=lambda i: (points[i].time_ms, points[i].energy_J))
    best_energy = float("inf")
    best_key: Optional[tuple[float, float]] = None
    for i in indexed:
        p = points[i]
        key = (p.time_ms, p.energy_J)
        if p.energy_J < best_energy or key == best_key:
            best_energy = p.energy_J
            best_key = key
        else:
            p.dominated = True
    return [p for p in points if not p.dominated]


def gops_per_watt(op_count: float, m: Measurement) -> float:
    """Giga-operations per second per watt; op_count cancels time, so this
    reduces to op_count / (1e9 * energy)."""
    if op_count <= 0:
        raise ReportError("operation count must be positive")
    if m.time_ms is None or m.time_ms <= 0 or m.energy_J is None \
            or m.energy_J <= 0:
        raise ReportError("measurement %r lacks positive time/energy" % m.name)
    return op_count / (1e9 * m.energy_J)


def find_baseline(measurements: list[Measurement],
                  signature_text: str = BASELINE_SIGNATURE_TEXT) -> Measurement:
    """The first successful row with `signature_text`; a baseline signature
    matches the baseline of any number of blocks."""
    baseline = is_baseline(signature_text)
    for m in measurements:
        match = (is_baseline(m.signature_text) if baseline
                 else m.signature_text == signature_text)
        if match and not m.failed:
            return m
    raise ReportError("no baseline measurement with signature %r"
                      % signature_text)


def emit_plot_data(measurements: list[Measurement], out_dir,
                   op_count: Optional[float] = None,
                   baseline_signature: str = BASELINE_SIGNATURE_TEXT) -> dict:
    """Plot-ready whitespace-separated columns: speedup bars, time/energy
    scatter with a frontier flag, and GOPS/W bars when an operation count
    is supplied.  A row without positive energy has no GOPS/W: it is left
    out of `gops.dat` with one line in the returned `warnings`."""
    if not measurements:
        raise ReportError("no measurements to report")
    ok = [m for m in measurements if not m.failed]
    if not ok:
        raise ReportError("every measurement failed; nothing to plot")
    base = find_baseline(measurements, baseline_signature)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    points = [TradeoffPoint(m.name, m.time_ms, m.energy_J) for m in ok]
    frontier = pareto_frontier(points)
    frontier_names = {p.variant for p in frontier}

    lines = ["# variant speedup_vs_baseline"]
    for m in ok:
        lines.append("%s %s" % (m.name, _fmt_g(speedup(base, m))))
    (out / "speedup.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")

    lines = ["# variant time_ms energy_J on_frontier"]
    for p in points:
        lines.append("%s %s %s %d" % (p.variant, _fmt_g(p.time_ms),
                                      _fmt_g(p.energy_J),
                                      int(p.variant in frontier_names)))
    (out / "tradeoff.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")

    written = {"speedup": out / "speedup.dat", "tradeoff": out / "tradeoff.dat"}
    warnings = []
    if op_count is not None:
        lines = ["# variant gops_per_watt"]
        for m in ok:
            if m.energy_J <= 0:
                warnings.append("warning: %s has no positive energy; left out "
                                "of gops.dat" % m.name)
                continue
            lines.append("%s %s" % (m.name, _fmt_g(gops_per_watt(op_count, m))))
        (out / "gops.dat").write_text("\n".join(lines) + "\n", encoding="utf-8")
        written["gops"] = out / "gops.dat"
    return {"files": written, "frontier": frontier, "baseline": base,
            "warnings": warnings}


def _fmt_g(v: float) -> str:
    return "%.6g" % v
