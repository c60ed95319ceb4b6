"""The paper's figure shapes, and the extensions', at 60k references.

Absolute miss rates are not targets (EXPERIMENTS.md, "What reproduced
means here"); these assert the shapes each figure claims: signs,
orderings, who wins where.  Each test prints its table, shown when it
fails.
"""

from __future__ import annotations

from repro.experiments import run_experiment
from repro.workloads.mibench import MIBENCH_ORDER
from repro.workloads.spec import SPEC_ORDER


def _run(eid, config):
    result = run_experiment(eid, config)
    print(result)
    return result


def _non_average_values(result):
    return [v for label, row in result.rows.items() if label != "Average" for v in row.values()]


def test_fig01_nonuniformity(shape_config):
    result = _run("fig1", shape_config)
    # Majority of sets under-utilised, hot minority, heavy tail.
    assert result.value("sets_below_half_avg_%", "value") > 50.0
    assert result.value("kurtosis", "value") > 3.0


def test_fig04_indexing_missrate(shape_config):
    result = _run("fig4", shape_config)
    # Mixed signs, no universal winner.
    signs = {col: [result.rows[b][col] for b in MIBENCH_ORDER] for col in result.columns}
    assert any(any(v < 0 for v in vals) for vals in signs.values())
    assert any(any(v > 10 for v in vals) for vals in signs.values())
    # fft benefits massively from every hashing scheme (aliasing arrays).
    assert min(result.rows["fft"].values()) > 30.0


def test_fig06_progassoc_missrate(shape_config):
    result = _run("fig6", shape_config)
    values = [v for b in MIBENCH_ORDER for v in result.rows[b].values()]
    # (Nearly) all non-negative; B-cache posts the smallest average.
    assert sum(1 for v in values if v < -5.0) <= 2
    averages = result.rows["Average"]
    assert averages["B_Cache"] <= averages["Adaptive_Cache"]
    assert averages["B_Cache"] <= averages["Column_associative"]


def test_fig07_progassoc_amat(shape_config):
    result = _run("fig7", shape_config)
    # AMAT improves on average for every scheme; fft dominates.
    assert all(v > 0 for v in result.rows["Average"].values())
    assert result.rows["fft"]["Column_associative"] > 50.0


def test_fig08_colassoc_indexing(shape_config):
    result = _run("fig8", shape_config)
    values = [v for b in SPEC_ORDER for v in result.rows[b].values()]
    # Modest swings in both directions (paper range roughly ±30%).
    assert any(v < 0 for v in values)
    assert all(abs(v) < 60 for v in values)


def test_fig09_indexing_kurtosis(shape_config):
    values = _non_average_values(_run("fig9", shape_config))
    # Mixed: some schemes sharply increase miss non-uniformity.
    assert any(v > 0 for v in values)
    assert any(v < 0 for v in values)


def test_fig10_indexing_skewness(shape_config):
    values = _non_average_values(_run("fig10", shape_config))
    assert any(v != 0 for v in values)


def test_fig11_progassoc_kurtosis(shape_config):
    result = _run("fig11", shape_config)
    # The adaptive cache drives kurtosis down for most benchmarks.
    adaptives = [result.rows[b]["Adaptive_Cache"] for b in MIBENCH_ORDER]
    assert sum(1 for v in adaptives if v <= 0) > len(adaptives) / 2


def test_fig12_progassoc_skewness(shape_config):
    result = _run("fig12", shape_config)
    adaptives = [result.rows[b]["Adaptive_Cache"] for b in MIBENCH_ORDER]
    assert sum(1 for v in adaptives if v <= 0) > len(adaptives) / 2


def test_fig13_smt_indexing(shape_config):
    result = _run("fig13", shape_config)
    # Substantial average reduction; the conflict-heavy MiBench mixes gain
    # strongly.
    assert result.value("Average", "reduction") > 10.0
    assert result.value("fft_susan", "reduction") > 30.0
    assert result.value("bitcount_adpcm", "reduction") > 30.0


def test_fig14_partitioned_amat(shape_config):
    result = _run("fig14", shape_config)
    # Positive on average, peak in the paper's ~60% territory.
    assert result.value("Average", "improvement") > 5.0
    assert max(result.column("improvement").values()) > 40.0


def test_ext_three_c(shape_config):
    result = _run("ext-3c", shape_config)
    # fft must be conflict-dominated; fully-streaming workloads cold/capacity.
    assert result.rows["fft"]["conflict%"] > 60.0
    assert result.rows["libquantum"]["conflict%"] < 20.0
    for bench, row in result.rows.items():
        total = row["cold%"] + row["capacity%"] + row["conflict%"]
        assert abs(total - 100.0) < 1e-6, bench


def test_ext_dynamic(shape_config):
    avg = _run("ext-dynamic", shape_config).rows["Average"]
    assert avg["dynamic"] > 0.0
    assert avg["dynamic"] >= min(avg["static_xor"], avg["static_odd"]) - 5.0


def test_ext_hpc(shape_config):
    result = _run("ext-hpc", shape_config)
    # The structured-array pathologies respond strongly to hashing...
    assert result.rows["stream"]["XOR"] > 50.0
    assert result.rows["transpose"]["Prime_Modulo"] > 30.0
    assert result.rows["jacobi"]["Odd_Multiplier"] > 30.0
    # ...while the random-scatter controls stay flat.
    for col in ("XOR", "Odd_Multiplier", "Prime_Modulo"):
        assert abs(result.rows["histogram"][col]) < 10.0


def test_ext_icache(shape_config):
    avg = _run("ext-icache", shape_config).rows["Average"]
    # Software placement recovers substantial I-cache conflicts...
    assert avg["Placement"] > 20.0
    # ...while address hashing barely moves contiguous code.
    assert abs(avg["XOR"]) < 10.0


def test_ext_bounds(shape_config):
    avg = _run("ext-bounds", shape_config).rows["Average"]
    assert avg["Belady"] >= avg["FullAssoc"] - 1e-9
    assert avg["Belady"] >= max(avg["Adaptive"], avg["B_Cache"], avg["ColAssoc"]) - 1e-9


def test_ext_patel(shape_config):
    avg = _run("ext-patel", shape_config).rows["Average"]
    assert avg["Patel_train"] >= avg["XOR"] - 10.0


def test_ext_hybrid(shape_config):
    result = _run("ext-hybrid", shape_config)
    # fft is fixed by every hybrid (the aliasing-array pathology).
    assert min(result.rows["fft"].values()) > 50.0
