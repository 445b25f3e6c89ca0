"""Command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_shape_square(self):
        args = build_parser().parse_args(["svd", "--shape", "64"])
        assert args.shape == (64, 64)

    def test_shape_rectangular(self):
        args = build_parser().parse_args(["svd", "--shape", "48x32"])
        assert args.shape == (48, 32)

    def test_bad_shape(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["svd", "--shape", "lots"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        for name in ("V100", "P100", "A100", "Vega20"):
            assert name in out

    def test_svd(self, capsys):
        code = main(["svd", "--shape", "12x8", "--batch", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "max reconstruction error" in out
        assert "batched_svd_sm" in out

    def test_estimate(self, capsys):
        assert main(["estimate", "--shape", "64", "--batch", "5"]) == 0
        out = capsys.readouterr().out
        assert "W-cycle SVD" in out
        assert "cuSOLVER" in out
        assert "MAGMA" in out

    def test_plan(self, capsys):
        assert main(["plan", "--shape", "256", "--batch", "100"]) == 0
        out = capsys.readouterr().out
        assert "plan 4" in out  # the paper's worked example
        assert "bf16" in out


class TestRuntimeFlags:
    def test_defaults(self):
        # The --backend default honours the runtime's env override, so
        # the CI rerun under REPRO_RUNTIME_BACKEND=persistent drives the
        # CLI through the persistent pool too.
        args = build_parser().parse_args(["svd"])
        assert args.workers == 1
        expected = (
            os.environ.get("REPRO_RUNTIME_BACKEND", "").strip() or "serial"
        )
        assert args.backend == expected

    def test_env_override_sets_backend_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_BACKEND", "persistent")
        args = build_parser().parse_args(["svd"])
        assert args.backend == "persistent"
        args = build_parser().parse_args(["svd", "--backend", "serial"])
        assert args.backend == "serial"  # explicit flag beats the env

    def test_bad_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["svd", "--backend", "gpu"])

    def test_env_override_rejects_unknown_backend(self, monkeypatch):
        # argparse never validates a *default* against choices, so a typo
        # in the env var must fail at parser build as a clean usage error
        # (not deep inside RuntimeConfig long after startup).
        monkeypatch.setenv("REPRO_RUNTIME_BACKEND", "persistant")
        with pytest.raises(SystemExit, match="persistant"):
            build_parser()

    def test_serve_cli_env_override_rejects_unknown_backend(
        self, monkeypatch
    ):
        from repro.serve.cli import build_parser as serve_parser

        monkeypatch.setenv("REPRO_RUNTIME_BACKEND", "persistant")
        with pytest.raises(SystemExit, match="persistant"):
            serve_parser()

    @pytest.mark.parametrize("cli", ["repro", "repro-serve"])
    def test_deleted_threads_backend_names_the_remaining_ones(
        self, capsys, cli
    ):
        from repro.serve.cli import build_parser as serve_parser

        if cli == "repro":
            parser, argv = build_parser(), ["svd", "--backend", "threads"]
        else:
            parser, argv = serve_parser(), ["--backend", "threads"]
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        assert "'serial', 'persistent'" in capsys.readouterr().err

    def test_estimate_takes_no_runtime_flags(self):
        for flag in ("--workers", "--backend", "--max-retries",
                     "--task-timeout", "--on-failure"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["estimate", flag, "1"])

    def test_estimate_takes_no_seed(self):
        # estimate prices [shape] * batch analytically: a seed would be a
        # setting that changes nothing, so the flag is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("cli", ["repro", "repro-serve"])
    def test_deleted_processes_backend_names_persistent(self, capsys, cli):
        from repro.serve.cli import build_parser as serve_parser

        if cli == "repro":
            parser, argv = build_parser(), ["svd", "--backend", "processes"]
        else:
            parser, argv = serve_parser(), ["--backend", "processes"]
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
        assert "persistent" in capsys.readouterr().err

    @pytest.mark.parametrize("cli", ["repro", "repro-serve"])
    def test_env_override_rejects_deleted_processes_backend(
        self, monkeypatch, cli
    ):
        from repro.serve.cli import build_parser as serve_parser

        monkeypatch.setenv("REPRO_RUNTIME_BACKEND", "processes")
        with pytest.raises(SystemExit, match="persistent"):
            build_parser() if cli == "repro" else serve_parser()

    def test_svd_persistent_backend(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 4)
        code = main(
            ["svd", "--shape", "12x8", "--batch", "3",
             "--workers", "2", "--backend", "persistent"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "persistent, 2 worker(s)" in out
        assert "max reconstruction error" in out

    def test_estimate_backend_reported(self, capsys):
        assert main(["estimate", "--shape", "32", "--batch", "4"]) == 0
        assert "W-cycle SVD" in capsys.readouterr().out

    def test_workers_beyond_cpu_count_rejected(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 2)
        code = main(["svd", "--workers", "3", "--backend", "persistent"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "workers=3 exceeds" in err
        assert "[1, 2]" in err

    def test_serial_backend_with_many_workers_rejected(self, capsys, monkeypatch):
        from repro.serve.cli import main as serve_main

        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 8)
        code = main(["svd", "--workers", "2", "--backend", "serial"])
        assert code == 2
        err = capsys.readouterr().err
        assert "requires a parallel backend" in err
        assert "add --backend persistent" in err
        code = serve_main(["--workers", "2", "--backend", "serial"])
        assert code == 2
        err = capsys.readouterr().err
        assert "requires a parallel backend" in err
        assert "add --backend persistent" in err


class TestResilienceFlags:
    def test_defaults(self):
        args = build_parser().parse_args(["svd"])
        assert args.max_retries is None
        assert args.task_timeout is None
        assert args.on_failure == "raise"

    def test_bad_on_failure(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["svd", "--on-failure", "ignore"])

    def test_negative_max_retries_rejected(self, capsys):
        code = main(["svd", "--max-retries", "-1"])
        assert code == 2
        assert "max_retries" in capsys.readouterr().err

    def test_svd_quarantine_clean_run(self, capsys):
        code = main(
            ["svd", "--shape", "12x8", "--batch", "3", "--seed", "1",
             "--on-failure", "quarantine"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "max reconstruction error" in out
        # a clean quarantine run still prints the (empty) failure summary
        assert "0 failure event(s)" in out

    def test_svd_with_retry_budget(self, capsys, monkeypatch):
        monkeypatch.setattr("repro.runtime.executor.os.cpu_count", lambda: 4)
        code = main(
            ["svd", "--shape", "12x8", "--batch", "3",
             "--workers", "2", "--backend", "persistent",
             "--max-retries", "1", "--task-timeout", "30"]
        )
        assert code == 0
        assert "max reconstruction error" in capsys.readouterr().out


class TestPerfSubcommand:
    def test_perf_list_delegates_to_repro_perf(self, capsys):
        # `python -m repro perf ...` is the same parser as `repro-perf`.
        assert main(["perf", "list"]) == 0
        out = capsys.readouterr().out
        assert "engine.64x64x32.speedup" in out
        assert "check(s)" in out

    def test_perf_check_runs_on_repo_root(self, capsys, tmp_path):
        # An empty tree: every check skips, gate stays green.
        assert main(["perf", "check", "--root", str(tmp_path)]) == 0
        assert "missing-source" in capsys.readouterr().out

    def test_perf_without_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit):
            main(["perf"])
