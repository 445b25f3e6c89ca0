"""The continuous performance-regression harness (repro.perfci)."""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.perfci import (
    SCHEMA_VERSION,
    ExtractionError,
    HistoryError,
    HostFingerprint,
    PerfCheck,
    Sample,
    all_checks,
    append_jsonl,
    append_samples,
    atomic_write_json,
    bench_meta,
    evaluate,
    evaluate_tree,
    exit_code,
    extract_value,
    history_path,
    load_jsonl,
    load_samples,
    record_samples,
    resolve_path,
    source_fingerprint,
)
from repro.perfci.checks import SourceMissing
from repro.perfci.cli import main as perf_main
from repro.perfci.regression import (
    BROKEN,
    IMPROVED,
    MISSING_SOURCE,
    NO_BASELINE,
    OK,
    REGRESSION,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

HOST_A = HostFingerprint(
    cpu_count=1, machine="x86_64", system="Linux", python="3.12", numpy="1.26"
)
HOST_B = HostFingerprint(
    cpu_count=8, machine="arm64", system="Darwin", python="3.12", numpy="1.26"
)

SPEEDUP = PerfCheck(
    name="t.speedup",
    source="BENCH_t.json",
    path="cases[case=a].speedup",
    unit="x",
    direction="higher",
    tolerance=0.20,
    noise_floor=0.1,
    window=5,
)
LATENCY = PerfCheck(
    name="t.p50",
    source="BENCH_t.json",
    path="p50_ms",
    unit="ms",
    direction="lower",
    tolerance=0.25,
    noise_floor=2.0,
    window=5,
)


def sample(check: PerfCheck, value: float, host=HOST_A, t=0.0) -> Sample:
    return Sample(
        check=check.name,
        value=value,
        unit=check.unit,
        direction=check.direction,
        source=check.source,
        host=host,
        recorded_unix=t,
    )


def series(check: PerfCheck, values, host=HOST_A) -> list[Sample]:
    return [sample(check, v, host=host, t=float(i)) for i, v in enumerate(values)]


# -------------------------------------------------------------------------
# Fingerprints and the meta block


class TestFingerprint:
    def test_current_is_stable_and_selfconsistent(self):
        a, b = HostFingerprint.current(), HostFingerprint.current()
        assert a == b
        assert a.key() == b.key()
        assert a.cpu_count == (os.cpu_count() or 1)

    def test_roundtrip_through_dict(self):
        fp = HostFingerprint.current()
        assert HostFingerprint.from_dict(fp.as_dict()) == fp

    def test_from_dict_tolerates_extras_and_gaps(self):
        fp = HostFingerprint.from_dict({"cpu_count": 4, "future_field": 1})
        assert fp.cpu_count == 4
        assert fp.machine == ""

    def test_versions_compare_at_minor_granularity(self):
        fp = HostFingerprint.from_dict(
            {**HOST_A.as_dict(), "python": "3.12.4", "numpy": "1.26.9"}
        )
        assert fp.python == "3.12"
        assert fp.numpy == "1.26"
        assert fp.key() == HOST_A.key()

    def test_different_hosts_different_keys(self):
        assert HOST_A.key() != HOST_B.key()

    def test_bench_meta_shape(self):
        meta = bench_meta("some_bench", unit="seconds")
        assert meta["benchmark"] == "some_bench"
        assert meta["unit"] == "seconds"
        assert meta["schema_version"] == SCHEMA_VERSION
        assert meta["host"] == HostFingerprint.current().as_dict()


# -------------------------------------------------------------------------
# Path expressions


class TestResolvePath:
    PAYLOAD = {
        "speedup": 5.0,
        "cases": [
            {"case": "a", "speedup": 2.5, "inner": {"x": 1.0}},
            {"case": "b", "speedup": 9.0},
        ],
        "configs": [
            {"backend": "threads", "workers": 2, "t": 1.0},
            {"backend": "threads", "workers": 4, "t": 2.0},
        ],
        "modes": {"micro-batched": {"p50": 33.0}},
        "replicas": {"1": {"rps": 500.0}},
        "rows": [["case0", 256, 0.6, 0.03, 20.8]],
    }

    def test_top_level_key(self):
        assert resolve_path(self.PAYLOAD, "speedup") == 5.0

    def test_selector_over_list_of_dicts(self):
        assert resolve_path(self.PAYLOAD, "cases[case=b].speedup") == 9.0

    def test_selector_key_may_contain_x_and_parens(self):
        payload = {"cases": [{"case": "256x(16x8)", "speedup": 20.8}]}
        assert (
            resolve_path(payload, "cases[case=256x(16x8)].speedup") == 20.8
        )

    def test_multi_key_selector(self):
        assert (
            resolve_path(
                self.PAYLOAD, "configs[backend=threads,workers=4].t"
            )
            == 2.0
        )

    def test_numeric_dict_key(self):
        assert resolve_path(self.PAYLOAD, "replicas.1.rps") == 500.0

    def test_dashed_key(self):
        assert resolve_path(self.PAYLOAD, "modes.micro-batched.p50") == 33.0

    def test_list_index_selector_and_segment(self):
        assert resolve_path(self.PAYLOAD, "rows[0].4") == 20.8

    def test_nested_after_selector(self):
        assert resolve_path(self.PAYLOAD, "cases[case=a].inner.x") == 1.0

    def test_missing_key_raises(self):
        with pytest.raises(ExtractionError):
            resolve_path(self.PAYLOAD, "nope.deeper")

    def test_unmatched_selector_raises(self):
        with pytest.raises(ExtractionError):
            resolve_path(self.PAYLOAD, "cases[case=zzz].speedup")

    def test_index_out_of_range_raises(self):
        with pytest.raises(ExtractionError):
            resolve_path(self.PAYLOAD, "rows[7].0")

    def test_extract_value_rejects_non_numeric(self, tmp_path):
        (tmp_path / "BENCH_t.json").write_text(
            json.dumps({"cases": [{"case": "a", "speedup": "fast"}]})
        )
        with pytest.raises(ExtractionError):
            extract_value(SPEEDUP, tmp_path)

    def test_extract_value_missing_source(self, tmp_path):
        with pytest.raises(SourceMissing):
            extract_value(SPEEDUP, tmp_path)


# -------------------------------------------------------------------------
# Atomic storage + JSONL history


class TestStorage:
    def test_atomic_json_roundtrip_no_droppings(self, tmp_path):
        path = tmp_path / "deep" / "out.json"
        atomic_write_json(path, {"a": 1})
        assert json.loads(path.read_text()) == {"a": 1}
        assert path.read_text().endswith("\n")
        leftovers = [p for p in path.parent.iterdir() if p != path]
        assert leftovers == []

    def test_failed_replace_leaves_original_intact(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        atomic_write_json(path, {"v": "old"})

        def boom(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr("repro.perfci.storage.os.replace", boom)
        with pytest.raises(OSError):
            atomic_write_json(path, {"v": "new"})
        assert json.loads(path.read_text()) == {"v": "old"}
        # The temp file was cleaned up, not stranded.
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_append_jsonl_accumulates(self, tmp_path):
        path = tmp_path / "h.jsonl"
        append_jsonl(path, [{"a": 1}])
        append_jsonl(path, [{"b": 2}, {"c": 3}])
        assert load_jsonl(path) == [{"a": 1}, {"b": 2}, {"c": 3}]

    def test_load_missing_is_empty(self, tmp_path):
        assert load_jsonl(tmp_path / "absent.jsonl") == []

    def test_malformed_line_raises_history_error(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"ok": 1}\n{"torn": \n')
        with pytest.raises(HistoryError):
            load_jsonl(path)

    def test_append_to_torn_tail_refuses(self, tmp_path):
        path = tmp_path / "h.jsonl"
        path.write_text('{"ok": 1}\n{"torn"')
        with pytest.raises(HistoryError):
            append_jsonl(path, [{"new": 2}])
        # Refusal must not have touched the file.
        assert path.read_text() == '{"ok": 1}\n{"torn"'

    def test_sample_roundtrip(self, tmp_path):
        path = tmp_path / "h.jsonl"
        s = sample(SPEEDUP, 2.5)
        append_samples(path, [s])
        [loaded] = load_samples(path)
        assert loaded == s

    def test_newer_schema_refused(self, tmp_path):
        path = tmp_path / "h.jsonl"
        record = sample(SPEEDUP, 2.5).as_dict()
        record["schema"] = SCHEMA_VERSION + 1
        append_jsonl(path, [record])
        with pytest.raises(HistoryError):
            load_samples(path)


# -------------------------------------------------------------------------
# The regression math


class TestRegressionMath:
    def test_empty_history_is_no_baseline(self):
        result = evaluate(SPEEDUP, 2.5, [], HOST_A)
        assert result.status == NO_BASELINE
        assert not result.failed
        assert exit_code([result]) == 0

    def test_single_sample_baseline_works(self):
        history = series(SPEEDUP, [2.5])
        assert evaluate(SPEEDUP, 2.45, history, HOST_A).status == OK
        bad = evaluate(SPEEDUP, 1.0, history, HOST_A)
        assert bad.status == REGRESSION
        assert bad.window_used == 1

    def test_regression_trips_gate(self):
        history = series(SPEEDUP, [2.4, 2.5, 2.6, 2.5, 2.5])
        result = evaluate(SPEEDUP, 1.8, history, HOST_A)
        assert result.status == REGRESSION
        assert result.failed
        assert result.baseline == 2.5
        assert result.degradation == pytest.approx((2.5 - 1.8) / 2.5)
        assert exit_code([result]) == 1

    def test_within_tolerance_ok(self):
        history = series(SPEEDUP, [2.5] * 5)
        assert evaluate(SPEEDUP, 2.2, history, HOST_A).status == OK

    def test_windowed_baseline_ignores_ancient_samples(self):
        # Five recent slow samples; the glorious 10x era before them
        # must not set the bar (window=5).
        history = series(SPEEDUP, [10.0, 10.0, 10.0, 2.5, 2.5, 2.5, 2.5, 2.5])
        result = evaluate(SPEEDUP, 2.4, history, HOST_A)
        assert result.status == OK
        assert result.baseline == 2.5
        assert result.window_used == 5

    def test_fingerprint_mismatch_excluded(self):
        # A fast other-host history must not judge this host.
        history = series(SPEEDUP, [10.0, 10.0, 10.0], host=HOST_B)
        result = evaluate(SPEEDUP, 2.5, history, HOST_A)
        assert result.status == NO_BASELINE

    def test_mixed_hosts_use_only_matching(self):
        history = series(SPEEDUP, [10.0] * 5, host=HOST_B) + series(
            SPEEDUP, [2.5, 2.6], host=HOST_A
        )
        result = evaluate(SPEEDUP, 2.5, history, HOST_A)
        assert result.status == OK
        assert result.window_used == 2

    def test_median_shrugs_off_one_outlier(self):
        # One freak 9x run in the window: the median baseline stays
        # ~2.5, so a normal 2.4 run does not page.
        history = series(SPEEDUP, [2.5, 2.6, 9.0, 2.5, 2.4])
        result = evaluate(SPEEDUP, 2.4, history, HOST_A)
        assert result.status == OK
        assert result.baseline == 2.5

    def test_noise_floor_suppresses_tiny_absolute_deltas(self):
        tiny = PerfCheck(
            name="t.tiny",
            source="BENCH_t.json",
            path="v",
            unit="s",
            direction="lower",
            tolerance=0.10,
            noise_floor=0.05,
        )
        history = series(tiny, [0.010, 0.011, 0.010])
        # +300% relative, but 0.03 s absolute < 0.05 s floor: noise.
        assert evaluate(tiny, 0.040, history, HOST_A).status == OK
        # Past the floor the same relative rule applies.
        assert evaluate(tiny, 0.080, history, HOST_A).status == REGRESSION

    def test_direction_higher_never_flags_improvement(self):
        history = series(SPEEDUP, [2.5] * 5)
        result = evaluate(SPEEDUP, 250.0, history, HOST_A)
        assert result.status == IMPROVED
        assert not result.failed

    def test_direction_lower_latency(self):
        history = series(LATENCY, [30.0, 33.0, 31.0])
        assert evaluate(LATENCY, 45.0, history, HOST_A).status == REGRESSION
        assert evaluate(LATENCY, 10.0, history, HOST_A).status == IMPROVED
        assert evaluate(LATENCY, 33.5, history, HOST_A).status == OK

    def test_zero_baseline_counter(self):
        counter = PerfCheck(
            name="t.counter",
            source="BENCH_t.json",
            path="n",
            unit="events",
            direction="lower",
            tolerance=0.10,
            noise_floor=0.5,
        )
        history = series(counter, [0.0, 0.0, 0.0])
        assert evaluate(counter, 0.0, history, HOST_A).status == OK
        tripped = evaluate(counter, 3.0, history, HOST_A)
        assert tripped.status == REGRESSION
        assert tripped.degradation == float("inf")

    def test_window_override(self):
        history = series(SPEEDUP, [10.0, 10.0, 10.0, 10.0, 2.5])
        assert (
            evaluate(SPEEDUP, 2.5, history, HOST_A, window=1).status == OK
        )
        assert (
            evaluate(SPEEDUP, 2.5, history, HOST_A, window=5).status
            == REGRESSION
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            PerfCheck(
                name="bad", source="s", path="p", unit="", direction="up",
                tolerance=0.1,
            )
        with pytest.raises(ValueError):
            PerfCheck(
                name="bad", source="s", path="p", unit="",
                direction="higher", tolerance=-0.1,
            )


# -------------------------------------------------------------------------
# Tree evaluation (sources + fingerprints together)


def _write_tree(tmp_path, speedup=2.5, host=HOST_A, with_meta=True):
    payload = {
        "cases": [{"case": "a", "speedup": speedup}],
        "p50_ms": 33.0,
    }
    if with_meta:
        payload["meta"] = {
            "benchmark": "t",
            "unit": "x",
            "schema_version": SCHEMA_VERSION,
            "host": host.as_dict(),
        }
    atomic_write_json(tmp_path / "BENCH_t.json", payload)
    return tmp_path


class TestEvaluateTree:
    def test_missing_source_skips(self, tmp_path):
        [result] = evaluate_tree([SPEEDUP], tmp_path, [], HOST_A)
        assert result.status == MISSING_SOURCE
        assert not result.failed

    def test_vanished_metric_fails(self, tmp_path):
        atomic_write_json(tmp_path / "BENCH_t.json", {"cases": []})
        [result] = evaluate_tree([SPEEDUP], tmp_path, [], HOST_A)
        assert result.status == BROKEN
        assert result.failed
        assert exit_code([result]) == 1

    def test_meta_host_governs_baseline_selection(self, tmp_path):
        # The payload was recorded on HOST_A; history has HOST_A
        # samples. Even when `check` runs on HOST_B, the committed
        # file gates against the committed baseline.
        _write_tree(tmp_path, speedup=1.0, host=HOST_A)
        history = series(SPEEDUP, [2.5, 2.5, 2.5], host=HOST_A)
        [result] = evaluate_tree(
            [SPEEDUP], tmp_path, history, fingerprint=HOST_B
        )
        assert result.status == REGRESSION

    def test_ambient_fingerprint_without_meta(self, tmp_path):
        _write_tree(tmp_path, speedup=1.0, with_meta=False)
        history = series(SPEEDUP, [2.5] * 3, host=HOST_B)
        [result] = evaluate_tree(
            [SPEEDUP], tmp_path, history, fingerprint=HOST_B
        )
        assert result.status == REGRESSION
        [result] = evaluate_tree(
            [SPEEDUP], tmp_path, history, fingerprint=HOST_A
        )
        assert result.status == NO_BASELINE

    def test_source_fingerprint_helper(self, tmp_path):
        _write_tree(tmp_path, host=HOST_A)
        assert (
            source_fingerprint(tmp_path, "BENCH_t.json", HOST_B) == HOST_A
        )
        assert (
            source_fingerprint(tmp_path, "nope.json", HOST_B) == HOST_B
        )


# -------------------------------------------------------------------------
# Recording


class TestRecord:
    def test_record_samples_and_skips(self, tmp_path):
        _write_tree(tmp_path)
        other = PerfCheck(
            name="t.absent",
            source="BENCH_absent.json",
            path="x",
            unit="",
            direction="higher",
            tolerance=0.1,
        )
        samples, skipped = record_samples(
            tmp_path, [SPEEDUP, LATENCY, other], now=123.0, note="n"
        )
        assert [s.check for s in samples] == ["t.speedup", "t.p50"]
        assert skipped == ["t.absent"]
        assert all(s.recorded_unix == 123.0 for s in samples)
        assert all(s.note == "n" for s in samples)

    def test_record_prefers_meta_host(self, tmp_path):
        _write_tree(tmp_path, host=HOST_B)
        samples, _ = record_samples(
            tmp_path, [SPEEDUP], fingerprint=HOST_A
        )
        assert samples[0].host == HOST_B

    def test_record_falls_back_to_ambient(self, tmp_path):
        _write_tree(tmp_path, with_meta=False)
        samples, _ = record_samples(
            tmp_path, [SPEEDUP], fingerprint=HOST_A
        )
        assert samples[0].host == HOST_A


# -------------------------------------------------------------------------
# The CLI, end to end on synthetic trees


class TestCli:
    def test_list(self, capsys):
        assert perf_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "engine.64x64x32.speedup" in out
        assert "serve.fused_speedup" in out

    def test_list_json(self, capsys):
        assert perf_main(["list", "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)
        assert "engine.256x16x8.speedup" in {c["name"] for c in checks}
        # No check reads a gitignored results sidecar, which CI never
        # has when it runs the gate.
        assert not [
            c for c in checks if c["source"].startswith("benchmarks/results/")
        ]

    def test_record_then_check_clean(self, tmp_path, capsys):
        _write_tree(tmp_path)
        root = str(tmp_path)
        assert perf_main(["record", "--root", root, "--note", "seed"]) == 0
        assert history_path(tmp_path).exists()
        # Registry checks other than the defaults are absent in this
        # tree; only the skipped names show, and the gate stays green.
        assert perf_main(["check", "--root", root]) == 0
        out = capsys.readouterr().out
        assert "missing-source" in out

    def test_injected_regression_trips_gate(self, tmp_path, capsys):
        # The acceptance fixture: record a healthy history, then
        # degrade a hot-path metric in the payload past tolerance.
        _write_tree(tmp_path, speedup=5.6)
        root = str(tmp_path)
        for _ in range(3):
            assert perf_main(["record", "--root", root]) == 0
        assert perf_main(["check", "--root", root]) == 0
        capsys.readouterr()
        _write_tree(tmp_path, speedup=2.0)  # gave back the PR 6 win
        assert perf_main(["check", "--root", root]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "t.speedup" in out

    def test_degradation_within_noise_floor_passes(self, tmp_path):
        _write_tree(tmp_path, speedup=5.6)
        root = str(tmp_path)
        perf_main(["record", "--root", root])
        _write_tree(tmp_path, speedup=5.55)  # < 0.1 floor
        assert perf_main(["check", "--root", root]) == 0

    def test_check_json_output(self, tmp_path, capsys):
        _write_tree(tmp_path)
        root = str(tmp_path)
        perf_main(["record", "--root", root])
        capsys.readouterr()
        assert perf_main(["check", "--root", root, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["exit_code"] == 0
        by_name = {r["check"]: r for r in doc["results"]}
        assert by_name["t.speedup"]["status"] == OK

    def test_select_unknown_check_usage_error(self, tmp_path, capsys):
        assert (
            perf_main(["check", "--root", str(tmp_path), "--select", "bogus"])
            == 2
        )
        assert "unknown perf check" in capsys.readouterr().err

    def test_corrupt_history_usage_error(self, tmp_path, capsys):
        _write_tree(tmp_path)
        path = history_path(tmp_path)
        path.parent.mkdir(parents=True)
        path.write_text("not json\n")
        assert perf_main(["check", "--root", str(tmp_path)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_strict_turns_skips_into_failures(self, tmp_path):
        _write_tree(tmp_path)
        assert perf_main(["check", "--root", str(tmp_path), "--strict"]) == 1

    def test_report(self, tmp_path, capsys):
        _write_tree(tmp_path)
        root = str(tmp_path)
        perf_main(["record", "--root", root])
        perf_main(["record", "--root", root])
        capsys.readouterr()
        assert (
            perf_main(
                ["report", "--root", root, "--select", "t.speedup"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "t.speedup (2 sample(s))" in out

    def test_record_dry_run_writes_nothing(self, tmp_path):
        _write_tree(tmp_path)
        assert perf_main(["record", "--root", str(tmp_path), "--dry-run"]) == 0
        assert not history_path(tmp_path).exists()


# The synthetic tree registers ad-hoc checks by passing them directly;
# the CLI path, however, uses the global registry, which the synthetic
# tree does not populate. Register the two test checks once.
def setup_module(module):
    from repro.perfci import checks as checks_mod

    for check in (SPEEDUP, LATENCY):
        if check.name not in {c.name for c in all_checks()}:
            checks_mod.register(check)


def teardown_module(module):
    from repro.perfci.checks import _REGISTRY

    _REGISTRY.pop("t.speedup", None)
    _REGISTRY.pop("t.p50", None)


# -------------------------------------------------------------------------
# The real repository: the acceptance criteria from ISSUE 10


class TestRealRepo:
    def test_every_default_check_extracts_or_is_absent(self):
        for check in all_checks():
            if check.name.startswith("t."):
                continue
            try:
                value = extract_value(check, REPO_ROOT)
            except SourceMissing:
                continue
            assert isinstance(value, float)
            assert value == value, check.name  # not NaN
            assert abs(value) != float("inf"), check.name

    def test_check_exits_zero_on_real_tree(self):
        # The shipped BENCH files + committed history must gate green:
        # a red baseline in a fresh checkout would make every future
        # perf PR start from a failing gate.
        results = evaluate_tree(
            [c for c in all_checks() if not c.name.startswith("t.")],
            REPO_ROOT,
            load_samples(history_path(REPO_ROOT)),
        )
        failed = [r.as_dict() for r in results if r.failed]
        assert exit_code(results) == 0, failed

    def test_committed_history_exists_and_is_fingerprinted(self):
        samples = load_samples(history_path(REPO_ROOT))
        assert samples, "benchmarks/history/perf.jsonl must ship a baseline"
        for s in samples:
            assert s.schema == SCHEMA_VERSION
            assert s.host.cpu_count >= 1
            assert s.direction in ("higher", "lower")

    def test_committed_bench_files_carry_unified_meta(self):
        for name in ("BENCH_wallclock.json", "BENCH_serve.json"):
            payload = json.loads((REPO_ROOT / name).read_text())
            meta = payload["meta"]
            assert meta["benchmark"], name
            assert meta["unit"], name
            assert meta["schema_version"] == SCHEMA_VERSION, name
            host = HostFingerprint.from_dict(meta["host"])
            assert host.cpu_count >= 1, name

    def test_synthetic_hotpath_regression_trips_on_real_payloads(
        self, tmp_path, capsys
    ):
        # ISSUE 10 acceptance: a degraded 64x(64x32) engine speedup on
        # an otherwise-real tree must exit nonzero.
        import shutil

        for name in ("BENCH_wallclock.json", "BENCH_serve.json"):
            shutil.copy(REPO_ROOT / name, tmp_path / name)
        root = str(tmp_path)
        perf_main(["record", "--root", root])
        assert perf_main(["check", "--root", root]) == 0

        payload = json.loads((tmp_path / "BENCH_wallclock.json").read_text())
        for case in payload["cases"]:
            if case["case"] == "64x(64x32)":
                case["speedup"] *= 0.5  # regression far past tolerance
        atomic_write_json(tmp_path / "BENCH_wallclock.json", payload)
        capsys.readouterr()
        assert perf_main(["check", "--root", root]) == 1
        out = capsys.readouterr().out
        assert "engine.64x64x32.speedup" in out
        assert "FAIL" in out
