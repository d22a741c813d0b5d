"""Tests for the command-line interface."""

import argparse
import re

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.device.specs import v100_node
from repro.sparse.io import load_npz


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_subcommands_are_exactly_these(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        assert set(sub.choices) == {
            "info", "suite", "gen", "multiply", "run", "trace",
            "experiment", "serve", "shard-worker"}
        assert sub.choices["run"] is sub.choices["multiply"]

    @pytest.mark.parametrize("retired", ["", "kernel-", "serve-", "shard-"])
    def test_retired_bench_commands_exit_2(self, retired):
        # bench/run.py is the one benchmark; see bench/README.md
        with pytest.raises(SystemExit) as exc:
            main([retired + "bench"])
        assert exc.value.code == 2


class TestInfo:
    def test_prints_device(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Tesla V100" in out
        assert "repro" in out


    def test_names_the_kernel_auto_resolves_to(self, monkeypatch, capsys):
        import repro.cli as cli

        why = cli.native_build_error()
        assert main(["info"]) == 0
        assert ("kernel: auto -> native\n" if why is None else
                f"kernel: auto -> esc (native unavailable: {why})\n"
                ) in capsys.readouterr().out
        monkeypatch.setattr(cli, "native_build_error", lambda: "no C compiler")
        assert main(["info"]) == 0
        assert ("kernel: auto -> esc (native unavailable: no C compiler)\n"
                in capsys.readouterr().out)

    def test_names_the_crc32_engine(self, monkeypatch, capsys):
        import repro.cli as cli

        why = cli.native_crc32_error()
        assert main(["info"]) == 0
        assert ("crc32: native fold (pclmul)\n" if why is None else
                f"crc32: zlib ({why})\n") in capsys.readouterr().out
        for why in ("CPU lacks pclmul", "disabled via REPRO_NATIVE=0"):
            monkeypatch.setattr(cli, "native_crc32_error", lambda: why)
            assert main(["info"]) == 0
            assert f"crc32: zlib ({why})\n" in capsys.readouterr().out
        monkeypatch.setattr(cli, "native_crc32_error", lambda: None)
        assert main(["info"]) == 0
        assert "crc32: native fold (pclmul)\n" in capsys.readouterr().out


class TestSuite:
    def test_lists_nine(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 9
        assert "lj2008" in out and "nlpkkt200" in out


class TestGen:
    def test_banded_npz(self, tmp_path, capsys):
        out = tmp_path / "band.npz"
        assert main(["gen", "banded", "--n", "100", "--bandwidth", "2",
                     "--seed", "3", "--out", str(out)]) == 0
        m = load_npz(out)
        assert m.n_rows == 100
        rows = m.expand_row_ids()
        assert np.all(np.abs(m.col_ids - rows) <= 2)

    def test_rmat_rounds_to_power_of_two(self, tmp_path):
        out = tmp_path / "g.npz"
        main(["gen", "rmat", "--n", "100", "--degree", "4", "--out", str(out)])
        assert load_npz(out).n_rows == 128

    def test_mtx_output(self, tmp_path):
        out = tmp_path / "g.mtx"
        main(["gen", "erdos-renyi", "--n", "40", "--degree", "3", "--out", str(out)])
        assert out.exists()

    def test_bad_extension(self, tmp_path):
        with pytest.raises(SystemExit, match="npz or .mtx"):
            main(["gen", "banded", "--n", "10", "--out", str(tmp_path / "x.csv")])


class TestMultiply:
    def test_square_from_file(self, tmp_path, capsys):
        src = tmp_path / "a.npz"
        main(["gen", "rmat", "--n", "256", "--degree", "6", "--seed", "9",
              "--out", str(src)])
        dst = tmp_path / "c.npz"
        assert main(["multiply", str(src), "--device-mem", "16",
                     "--out", str(dst)]) == 0
        out = capsys.readouterr().out
        assert "GFLOPS" in out
        c = load_npz(dst)
        # verify against scipy
        from tests.reference import spgemm_scipy
        from repro.sparse.ops import drop_explicit_zeros

        a = load_npz(src)
        assert drop_explicit_zeros(c).allclose(spgemm_scipy(a, a))

    def test_hybrid_mode(self, tmp_path, capsys):
        src = tmp_path / "a.npz"
        main(["gen", "banded", "--n", "2000", "--bandwidth", "5", "--seed", "2",
              "--out", str(src)])
        assert main(["multiply", str(src), "--mode", "hybrid",
                     "--device-mem", "8"]) == 0
        assert "hybrid" in capsys.readouterr().out

    def test_unresolvable_operand(self):
        with pytest.raises(SystemExit, match="cannot resolve"):
            main(["multiply", "does-not-exist.foo"])

    def test_rectangular_product(self, tmp_path, capsys):
        a_path = tmp_path / "a.npz"
        b_path = tmp_path / "b.npz"
        main(["gen", "erdos-renyi", "--n", "300", "--degree", "5", "--seed", "1",
              "--out", str(a_path)])
        main(["gen", "erdos-renyi", "--n", "300", "--degree", "4", "--seed", "2",
              "--out", str(b_path)])
        assert main(["multiply", str(a_path), str(b_path),
                     "--device-mem", "16"]) == 0


    @pytest.mark.parametrize("args,message", [
        (["{b}"], r"dimension mismatch: A is \(300, 300\), B is \(200, 200\)"),
        (["--device-mem", "0"], "no grid fits: the resident inputs"),
        (["--mode", "hybrid", "--ratio", "1.5"], r"ratio must be in \[0, 1\]"),
        (["--backend", "serial", "--workers", "2"],
         "the serial backend runs exactly one worker"),
    ], ids=["shapes", "device", "ratio", "backend"])
    def test_a_typed_refusal_is_one_line_and_status_2(self, args, message,
                                                      tmp_path, capsys):
        """What the planner and the engine refuse about the user's
        arguments reads like argparse's own refusals, not a traceback."""
        a_path, b_path = tmp_path / "a.npz", tmp_path / "b.npz"
        for path, n in ((a_path, "300"), (b_path, "200")):
            main(["gen", "erdos-renyi", "--n", n, "--degree", "5", "--seed", "1",
                  "--out", str(path)])
        capsys.readouterr()
        argv = [arg.format(b=b_path) for arg in args]
        assert main(["multiply", str(a_path), *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        (line,) = captured.err.splitlines()
        assert re.fullmatch(f"repro multiply: error: {message}.*", line)

    def test_a_bad_out_suffix_is_refused_before_loading(self, monkeypatch,
                                                        capsys):
        import repro.cli as cli

        monkeypatch.setattr(cli, "_load_matrix", None)  # calling it fails
        assert main(["multiply", "stokes", "--out", "c.txt"]) == 2
        assert capsys.readouterr().err == (
            "repro multiply: error: output must be .npz or .mtx, got 'c.txt'\n")

    @pytest.mark.parametrize("command", ["multiply", "trace"])
    def test_an_unbuildable_native_is_refused_before_loading(
            self, command, monkeypatch, capsys):
        """``--kernel native`` on a host that cannot build it: one line
        and status 2 before any operand is read, not a traceback out of
        chunk 0 (``auto`` degrades; an explicit choice does not)."""
        import repro.cli as cli
        import repro.spgemm.kernels as kernels

        monkeypatch.setattr(kernels, "native_available", lambda: False)
        monkeypatch.setattr(kernels, "native_build_error",
                            lambda: "no C compiler (cc/gcc/clang) on PATH")
        monkeypatch.setattr(cli, "_load_matrix", None)  # calling it fails
        assert main([command, "stokes", "--kernel", "native"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"repro {command}: error: kernel 'native' requested but "
            "unavailable: no C compiler (cc/gcc/clang) on PATH\n")

    @pytest.mark.parametrize("gen", [
        ["rmat", "--n", "4096", "--degree", "12", "--seed", "3"],
        ["banded", "--n", "20000", "--bandwidth", "12", "--seed", "4"],
        ["erdos-renyi", "--n", "8000", "--degree", "10", "--seed", "5"],
    ], ids=lambda gen: gen[0])
    def test_default_device_is_sized_without_multiplying(self, gen, tmp_path,
                                                         monkeypatch):
        """Without ``--device-mem`` the device is "inputs resident + half
        the remaining working set" of ``A x A`` — the experiment runner's
        rule, to the byte — from the flop count alone."""
        import repro.cli as cli
        from repro.core.chunks import csr_bytes
        from repro.core.planner import working_set_bytes
        from tests.reference import spgemm_scipy

        src = tmp_path / "a.npz"
        main(["gen", *gen, "--out", str(src)])
        a = load_npz(src)
        flops = 2 * int(a.row_nnz()[a.col_ids].sum())
        inputs = 2 * csr_bytes(a.n_rows, a.nnz)
        rest = working_set_bytes(a.n_rows, a.nnz, flops,
                                 spgemm_scipy(a, a).nnz) - inputs
        assert rest // 2 > 8 << 20  # the floor is not what is compared

        sized = []
        monkeypatch.setattr(cli, "v100_node", lambda nbytes=None: (
            sized.append(nbytes), v100_node(nbytes))[1])
        assert main(["multiply", str(src)]) == 0
        assert sized == [inputs + rest // 2]


class TestExperiment:
    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        assert "Tesla V100" in capsys.readouterr().out

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestTrace:
    def test_exports_chrome_json(self, tmp_path, capsys):
        import json

        from repro.observability import validate_chrome_trace

        src = tmp_path / "a.npz"
        main(["gen", "rmat", "--n", "256", "--degree", "5", "--seed", "4",
              "--out", str(src)])
        out = tmp_path / "trace.json"
        assert main(["trace", str(src), "--device-mem", "16",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        events = validate_chrome_trace(payload)
        # measured spans (pid 0) and the simulated schedule (pid 1)
        assert {e["pid"] for e in events} == {0, 1}
        measured_cats = {e.get("cat") for e in events
                        if e["ph"] == "X" and e["pid"] == 0}
        assert {"analysis", "symbolic", "numeric", "sink"} <= measured_cats
        printed = capsys.readouterr().out
        assert "wrote" in printed
        assert "critical path" in printed

    def test_workers_trace_has_queue_spans_and_lane_summary(self, tmp_path, capsys):
        import json

        from repro.observability import validate_chrome_trace

        src = tmp_path / "a.npz"
        main(["gen", "rmat", "--n", "512", "--degree", "5", "--seed", "7",
              "--out", str(src)])
        out = tmp_path / "trace.json"
        assert main(["trace", str(src), "--device-mem", "8", "--workers", "4",
                     "--trace-out", str(out)]) == 0
        events = validate_chrome_trace(json.loads(out.read_text()))
        cats = {e.get("cat") for e in events if e["ph"] == "X" and e["pid"] == 0}
        assert "queue" in cats  # queue-wait spans from the pool dispatch
        assert any(e["ph"] == "C" for e in events)  # lane/cache gauges
        printed = capsys.readouterr().out
        assert "util %" in printed  # per-lane utilization table

    def test_hybrid_trace(self, tmp_path):
        src = tmp_path / "a.npz"
        main(["gen", "banded", "--n", "1500", "--bandwidth", "4", "--seed", "2",
              "--out", str(src)])
        out = tmp_path / "t.json"
        assert main(["trace", str(src), "--mode", "hybrid", "--device-mem", "8",
                     "--out", str(out)]) == 0
        assert out.exists()


class TestSuiteFeatures:
    def test_features_table(self, capsys):
        # uses the shared cache; cheap after the first suite build
        assert main(["suite", "--features"]) == 0
        out = capsys.readouterr().out
        assert "compr. ratio" in out and "nlp" in out


class TestMultiplySuiteName:
    def test_suite_operand(self, capsys):
        assert main(["multiply", "stokes", "--mode", "async"]) == 0
        assert "GFLOPS" in capsys.readouterr().out
