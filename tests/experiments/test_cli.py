"""CLI smoke tests."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_args(self):
        args = build_parser().parse_args(["run", "fig4", "--refs", "1000"])
        assert args.experiment == "fig4" and args.refs == 1000

    def test_run_cell_timeout(self):
        args = build_parser().parse_args(["run", "fig4", "--cell-timeout", "2.5"])
        assert args.cell_timeout == 2.5

    def test_serve_args(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--jobs", "2", "--max-pending", "8",
             "--threads", "--cell-timeout", "1.5"]
        )
        assert args.port == 0 and args.jobs == 2 and args.max_pending == 8
        assert args.threads is True and args.cell_timeout == 1.5

    def test_submit_args(self):
        args = build_parser().parse_args(
            ["submit", "sweep", "--workload", "fft",
             "--schemes", "baseline,XOR", "--deadline", "3"]
        )
        assert args.target == "sweep" and args.workload == "fft"
        assert args.schemes == "baseline,XOR" and args.deadline == 3.0


class TestVersion:
    def test_version_flag(self, capsys):
        import repro

        with pytest.raises(SystemExit) as exc_info:
            main(["--version"])
        assert exc_info.value.code == 0
        assert repro.__version__ in capsys.readouterr().out


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fft" in out and "xor" in out and "fig4" in out

    def test_sweep(self, capsys):
        assert main(["sweep", "--workload", "crc", "--refs", "3000",
                     "--schemes", "modulo,xor"]) == 0
        out = capsys.readouterr().out
        assert "miss_rate" in out

    def test_sweep_kway(self, capsys):
        assert main(["sweep", "--workload", "crc", "--refs", "3000",
                     "--schemes", "modulo", "--ways", "4"]) == 0
        out = capsys.readouterr().out
        assert "4-way" in out and "miss_rate" in out

    def test_sweep_single_non_lru_policy(self, capsys):
        # Non-LRU policies are first-class now (routed through the
        # fastpolicy kernels); only the Mattson ways-ladder stays LRU-only.
        assert main(["sweep", "--workload", "crc", "--refs", "3000",
                     "--schemes", "modulo", "--ways", "2",
                     "--policy", "fifo"]) == 0
        out = capsys.readouterr().out
        assert "2-way" in out and "miss_rate" in out

    def test_sweep_policy_list(self, capsys):
        assert main(["sweep", "--workload", "crc", "--refs", "3000",
                     "--schemes", "modulo", "--ways", "2",
                     "--policy", "lru,fifo,random"]) == 0
        out = capsys.readouterr().out
        for policy in ("lru", "fifo", "random"):
            assert policy in out

    def test_sweep_rejects_unknown_policy(self, capsys):
        assert main(["sweep", "--workload", "crc", "--refs", "3000",
                     "--schemes", "modulo",
                     "--policy", "lru,belady"]) == 2
        err = capsys.readouterr().err
        assert "belady" in err

    def test_sweep_ways_ladder_stays_lru_only(self, capsys):
        assert main(["sweep", "--workload", "crc", "--refs", "3000",
                     "--schemes", "modulo", "--ways", "1,2,4",
                     "--policy", "fifo"]) == 2
        err = capsys.readouterr().err
        assert "LRU" in err

    def test_trace_npz(self, tmp_path, capsys):
        out_file = tmp_path / "t.npz"
        assert main(["trace", "bitcount", "--refs", "2000", "--out", str(out_file)]) == 0
        assert out_file.exists()
        from repro.trace.io import load_npz

        assert len(load_npz(out_file)) == 2000

    def test_trace_din(self, tmp_path):
        out_file = tmp_path / "t.din"
        assert main(["trace", "bitcount", "--refs", "500", "--out", str(out_file),
                     "--format", "din"]) == 0
        assert out_file.read_text().count("\n") >= 500

    def test_trace_requires_out(self, capsys):
        assert main(["trace", "bitcount", "--refs", "500"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_trace_warm(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # trace cache lands in tmp
        argv = ["trace", "warm", "--refs", "1500", "--scale", "0.05",
                "--experiments", "fig1", "--jobs", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "1 generated" in out and "0 already cached" in out
        assert (tmp_path / ".trace_cache").exists()
        # Second run: everything is a cache hit.
        assert main(argv) == 0
        assert "0 generated" in capsys.readouterr().out

    def test_cache_inventory_counts_both_result_formats(
        self, tmp_path, capsys, to_npz_entry
    ):
        import numpy as np

        from repro.core.simulator import SimulationResult
        from repro.experiments.engine import ResultCache

        counts = np.arange(8, dtype=np.int64)
        result = SimulationResult(
            model="m", trace_name="t", accesses=28, hits=0, misses=28,
            lookup_cycles=28, slot_accesses=counts, slot_hits=counts * 0,
            slot_misses=counts, extra={},
        )
        results = ResultCache(tmp_path / "results")
        for key in ("a" * 64, "b" * 64, "c" * 64):
            results.store(key, result)
        to_npz_entry(results, "c" * 64)
        # A key caught between migration steps (raw written, npz not yet
        # unlinked) is one raw entry, not two.
        results.store("d" * 64, result)
        to_npz_entry(results, "d" * 64)
        results.store("d" * 64, result)

        assert main(["cache", "--trace-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "4 cell result(s) (3 raw, 1 npz)" in out
        assert main(["cache", "--trace-dir", str(tmp_path), "--clear"]) == 0
        assert "cleared 4 cell result(s)" in capsys.readouterr().out
        assert not list((tmp_path / "results").iterdir())

    def test_trace_warm_rejects_unknown_experiment(self, capsys):
        assert main(["trace", "warm", "--experiments", "nope"]) == 2
        assert "nope" in capsys.readouterr().err

    def test_submit_without_server_fails_cleanly(self, capsys):
        # Port 1 is never listening; the client must fail with a clear
        # connection error (exit 3), not a traceback.
        assert main(["submit", "health", "--port", "1"]) == 3
        assert "cannot reach repro.service" in capsys.readouterr().err

    def test_submit_cell_requires_workload_and_label(self, capsys):
        assert main(["submit", "cell", "--port", "1"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_run_experiment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # trace cache lands in tmp
        md = tmp_path / "out.md"
        assert main(["run", "fig1", "--refs", "20000", "--out", str(md)]) == 0
        out = capsys.readouterr().out
        assert "fig1" in out
        assert md.read_text().startswith("### fig1")
