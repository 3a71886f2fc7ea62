import random

import pytest
from hypothesis import given, strategies as st

from hmppgen.errors import ReportError
from hmppgen.explore import Measurement
from hmppgen.report import (
    CSV_HEADER, TradeoffPoint, emit_plot_data, find_baseline, gops_per_watt,
    pareto_frontier, parse_csv, speedup, write_csv,
)

from conftest import load


def table8_measurements():
    return parse_csv(load("table8.csv"))


def test_csv_header_is_exact():
    assert CSV_HEADER == ("Version/Measure,Signature,Time Expended(ms.),"
                          "Energy Consumption(J.)")
    assert write_csv(table8_measurements()).splitlines()[0] == CSV_HEADER


def test_table8_round_trip_and_ordering():
    ms = table8_measurements()
    text = write_csv(ms)
    lines = text.splitlines()
    assert lines[1] == 'Original(OpenMP),"0, 0, 0",59500,17428'
    times = [float(l.rsplit(",", 2)[1]) for l in lines[2:]]
    assert times == sorted(times)
    again = parse_csv(text)
    assert [(m.name, m.signature_text, m.time_ms, m.energy_J) for m in ms] == \
           [(m.name, m.signature_text, m.time_ms, m.energy_J) for m in again]


def test_decimal_formatting():
    ms = [Measurement("A", "0, 0, 0", 59500.0, 17428.0, [(59500.0, 17428.0)]),
          Measurement("B", "0, 0, 1", 3401.55, 10530.2, [(3401.55, 10530.2)]),
          Measurement("C", "9, 1, 0", 10530.20, 12.345, [(10530.2, 12.345)])]
    text = write_csv(ms)
    assert "59500,17428" in text
    assert "3401.55,10530.2" in text
    assert "10530.2,12.35" in text  # two fractional digits at most


def test_single_measurement_two_line_file():
    ms = [Measurement("Original(OpenMP)", "0, 0, 0", 100.0, 50.0,
                      [(100.0, 50.0)])]
    assert len(write_csv(ms).splitlines()) == 2


def test_failed_rows_keep_reason_column():
    ms = [Measurement("Original(OpenMP)", "0, 0, 0", 10.0, 5.0, [(10.0, 5.0)]),
          Measurement.failure("Broken", "0, 0, 1", "build failure: no cc")]
    text = write_csv(ms)
    row = text.splitlines()[2]
    assert row.startswith('Broken,"0, 0, 1",,,')
    assert "build failure" in row
    again = parse_csv(text)
    assert again[1].failed and "build failure" in again[1].reason


def test_missing_header_rejected():
    with pytest.raises(ReportError):
        parse_csv("a,b,c\n1,2,3\n")


def test_non_numeric_row_rejected():
    bad = CSV_HEADER + "\nA,\"0, 0, 0\",fast,low\n"
    with pytest.raises(ReportError):
        parse_csv(bad)


@pytest.mark.parametrize("time_ms, energy", [
    ("nan", "1"), ("1", "inf"), ("-inf", "1"), ("-5", "1"), ("1", "-5")])
def test_non_finite_or_negative_row_rejected(time_ms, energy):
    bad = CSV_HEADER + "\nOriginal(OpenMP),\"0, 0, 0\",1,1\n" \
        + "Odd__0_0_1,\"0, 0, 1\",%s,%s\n" % (time_ms, energy)
    with pytest.raises(ReportError) as exc:
        parse_csv(bad)
    assert "Odd__0_0_1" in str(exc.value)


def test_zero_measurements_stay_valid():
    # table1's energies round to 0 in the CSV
    rows = parse_csv(CSV_HEADER + "\nOriginal(OpenMP),\"0, 0, 0\",0,0\n")
    assert (rows[0].time_ms, rows[0].energy_J) == (0.0, 0.0)


def test_empty_measurements_rejected():
    with pytest.raises(ReportError):
        write_csv([])


# -- speedup -----------------------------------------------------------------------


def test_speedup_table8_values():
    ms = table8_measurements()
    base = find_baseline(ms)
    best = next(m for m in ms if m.signature_text == "9, 1, 0")
    assert abs(speedup(base, best) - 59500 / 9611) < 1e-12
    assert abs(speedup(base, best) - 6.19) < 0.01


def test_speedup_identity_and_slowdown():
    m = Measurement("x", "0, 0, 1", 100.0, 1.0, [(100.0, 1.0)])
    assert speedup(m, m) == 1.0
    slow = Measurement("y", "0, 1, 0", 200.0, 1.0, [(200.0, 1.0)])
    assert speedup(m, slow) == 0.5


def test_speedup_zero_time_rejected():
    base = Measurement("b", "0, 0, 0", 10.0, 1.0, [(10.0, 1.0)])
    broken = Measurement("v", "0, 0, 1", 0.0, 1.0, [(0.0, 1.0)])
    with pytest.raises(ReportError):
        speedup(base, broken)


# -- pareto ------------------------------------------------------------------------


def brute_force_frontier(points):
    out = []
    for p in points:
        dominated = any(
            q.time_ms <= p.time_ms and q.energy_J <= p.energy_J and
            (q.time_ms < p.time_ms or q.energy_J < p.energy_J)
            for q in points)
        if not dominated:
            out.append(p)
    return out


def test_table8_frontier_is_the_single_best_point():
    ms = table8_measurements()
    points = [TradeoffPoint(m.name, m.time_ms, m.energy_J) for m in ms]
    frontier = pareto_frontier(points)
    assert [(p.time_ms, p.energy_J) for p in frontier] == [(9611.0, 3401.55)]


def test_empty_frontier():
    assert pareto_frontier([]) == []


def test_incomparable_pair_is_retained():
    pts = [TradeoffPoint("a", 1, 2), TradeoffPoint("b", 2, 1)]
    assert len(pareto_frontier(pts)) == 2


def test_duplicates_survive_together():
    pts = [TradeoffPoint("a", 1, 1), TradeoffPoint("b", 1, 1)]
    assert len(pareto_frontier(pts)) == 2


@given(st.lists(st.tuples(st.integers(0, 50), st.integers(0, 50)),
                max_size=60))
def test_frontier_matches_brute_force(raw):
    pts = [TradeoffPoint(str(i), float(t), float(e))
           for i, (t, e) in enumerate(raw)]
    expect = {p.variant for p in brute_force_frontier(pts)}
    got = {p.variant for p in pareto_frontier(pts)}
    assert got == expect


def test_frontier_membership_invariant_under_rescaling():
    rng = random.Random(11)
    pts = [TradeoffPoint(str(i), rng.uniform(1, 100), rng.uniform(1, 100))
           for i in range(60)]
    before = {p.variant for p in pareto_frontier(pts)}
    scaled = [TradeoffPoint(p.variant, p.time_ms * 13.7, p.energy_J * 0.04)
              for p in pts]
    after = {p.variant for p in pareto_frontier(scaled)}
    assert before == after


def test_frontier_preserves_input_order():
    pts = [TradeoffPoint("late", 5, 1), TradeoffPoint("early", 1, 5),
           TradeoffPoint("dead", 6, 6)]
    frontier = pareto_frontier(pts)
    assert [p.variant for p in frontier] == ["late", "early"]


# -- gops ---------------------------------------------------------------------------


def test_gops_unit_case():
    m = Measurement("x", "0, 0, 1", 1000.0, 1.0, [(1000.0, 1.0)])
    assert gops_per_watt(1e9, m) == 1.0


def test_gops_linearity():
    m = Measurement("x", "0, 0, 1", 1000.0, 4.0, [(1000.0, 4.0)])
    assert gops_per_watt(2e9, m) == 0.5


def test_gops_efficiency_ratio_matches_energy_ratio():
    ms = table8_measurements()
    base = find_baseline(ms)
    best = next(m for m in ms if m.signature_text == "9, 1, 0")
    ratio = gops_per_watt(1e9, best) / gops_per_watt(1e9, base)
    assert abs(ratio - 17428 / 3401.55) < 1e-9
    assert abs(ratio - 5.12) < 0.01


def test_gops_rejects_bad_inputs():
    m = Measurement("x", "0, 0, 1", 1000.0, 1.0, [(1000.0, 1.0)])
    with pytest.raises(ReportError):
        gops_per_watt(0, m)


# -- plot data ------------------------------------------------------------------------


def test_plot_data_files(tmp_path):
    ms = table8_measurements()
    result = emit_plot_data(ms, tmp_path, op_count=1e9)
    tradeoff = (tmp_path / "tradeoff.dat").read_text().splitlines()
    assert tradeoff[0].startswith("#")
    rows = tradeoff[1:]
    assert len(rows) == 5
    flags = [int(r.split()[-1]) for r in rows]
    assert sum(flags) == 1
    speedups = (tmp_path / "speedup.dat").read_text().splitlines()[1:]
    assert len(speedups) == 5
    gops = (tmp_path / "gops.dat").read_text().splitlines()[1:]
    assert len(gops) == 5


def test_plot_data_baseline_only(tmp_path):
    ms = [Measurement("Original(OpenMP)", "0, 0, 0", 100.0, 50.0,
                      [(100.0, 50.0)])]
    emit_plot_data(ms, tmp_path)
    rows = (tmp_path / "speedup.dat").read_text().splitlines()[1:]
    assert rows == ["Original(OpenMP) 1"]


def test_plot_data_empty_rejected(tmp_path):
    with pytest.raises(ReportError):
        emit_plot_data([], tmp_path)
