"""Benchmark history store + regression gate (:mod:`repro.obs.perf`).

The gate reads only the paper's deterministic measures; wall-clock
metrics in old histories load and are ignored.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs import perf


def record(exp_id, metrics, **kw):
    kw.setdefault("ts", 1000.0)
    kw.setdefault("commit", "abc1234")
    return perf.make_record(exp_id, metrics, **kw)


class TestClassification:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("chained_makespan_cycles", "sim_cycles"),
            ("stall_cycles_total", "sim_cycles"),
            ("input_words_total", "memory_traffic"),
            ("max_r_memory_words", "memory_traffic"),
            ("max_avg_d_io", "host_bandwidth"),
        ],
    )
    def test_classify(self, name, cls):
        assert perf.classify_metric(name) == cls

    @pytest.mark.parametrize(
        "name",
        [
            "wall_time_s",
            "oracle_vectorized_ms",
            "repro_benchmark_table_bytes",
            "utilization",
            # A seconds unit wins over a gated substring.
            "profile_io_census_self_s",
        ],
    )
    def test_ungated(self, name):
        assert perf.classify_metric(name) is None

    def test_every_class_has_a_threshold(self):
        assert set(perf.DEFAULT_THRESHOLDS) == set(perf.METRIC_CLASSES)


class TestHistoryStore:
    def test_append_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "deep" / "history.jsonl"
        r1 = record("F18", {"stall_cycles_total": 0}, n=12, m=4)
        r2 = record("F18", {"stall_cycles_total": 2}, n=12, m=4)
        perf.append_history(path, r1)
        perf.append_history(path, r2)
        loaded = perf.load_history(path)
        assert loaded == [r1, r2]
        assert all(r["version"] == perf.SCHEMA_VERSION for r in loaded)

    def test_load_missing_history_is_empty(self, tmp_path):
        assert perf.load_history(tmp_path / "absent.jsonl") == []

    def test_latest_by_exp_keeps_last(self):
        recs = [
            record("F18", {"x": 1}),
            record("F21", {"x": 5}),
            record("F18", {"x": 2}),
        ]
        latest = perf.latest_by_exp(recs)
        assert latest["F18"]["metrics"] == {"x": 2}
        assert latest["F21"]["metrics"] == {"x": 5}

    def test_rollup_caps_runs_per_experiment(self):
        recs = [record("F18", {"x": i}) for i in range(8)]
        doc = perf.rollup(recs, keep=3)
        runs = doc["experiments"]["F18"]["runs"]
        assert [r["metrics"]["x"] for r in runs] == [5, 6, 7]
        assert doc["version"] == perf.SCHEMA_VERSION

    def test_write_trajectory_and_reload(self, tmp_path):
        path = tmp_path / "BENCH_PERF.json"
        recs = [record("F18", {"x": 1}), record("F18", {"x": 2})]
        doc = perf.write_trajectory(path, recs)
        assert json.loads(path.read_text()) == doc
        # load_records sniffs the trajectory shape -> latest run.
        assert perf.load_records(path)["F18"]["metrics"] == {"x": 2}

    def test_load_records_all_shapes(self, tmp_path):
        rec = record("F18", {"x": 3})
        jsonl = tmp_path / "h.jsonl"
        perf.append_history(jsonl, rec)
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps(perf.make_baseline([rec])))
        as_list = tmp_path / "list.json"
        as_list.write_text(json.dumps([rec]))
        single = tmp_path / "one.json"
        single.write_text(json.dumps(rec))
        for path in (jsonl, baseline, as_list, single):
            assert perf.load_records(path)["F18"]["metrics"] == {"x": 3}

    def test_load_records_rejects_unknown_shape(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"weird": true}')
        with pytest.raises(ValueError, match="unrecognised"):
            perf.load_records(bad)


class TestCompare:
    def base(self):
        return perf.latest_by_exp(
            [record("F18", {"wall_time_s": 1.0, "stall_cycles_total": 10})]
        )

    def test_identical_records_pass(self):
        assert perf.compare(self.base(), self.base()) == []

    def test_doubled_wall_time_is_ungated(self):
        cur = perf.latest_by_exp(
            [record("F18", {"wall_time_s": 2.0, "stall_cycles_total": 10})]
        )
        assert perf.compare(self.base(), cur) == []

    def test_wall_time_noise_within_threshold_passes(self):
        cur = perf.latest_by_exp(
            [record("F18", {"wall_time_s": 1.4, "stall_cycles_total": 10})]
        )
        assert perf.compare(self.base(), cur) == []

    def test_sim_cycles_are_tightly_budgeted(self):
        cur = perf.latest_by_exp(
            [record("F18", {"wall_time_s": 1.0, "stall_cycles_total": 11})]
        )
        regs = perf.compare(self.base(), cur)
        assert [r.metric for r in regs] == ["stall_cycles_total"]
        assert regs[0].metric_class == "sim_cycles"
        assert regs[0].ratio == pytest.approx(1.1)
        assert "REGRESSION F18.stall_cycles_total" in str(regs[0])

    def test_profile_companion_records_are_ungated(self):
        """Old ``<exp>:profile`` phase records never gate."""
        baseline = {"F18:profile": record("F18:profile", {
            "profile_wall_s": 1.0, "profile_sim_compile_self_s": 0.2,
        })}
        current = {"F18:profile": record("F18:profile", {
            "profile_wall_s": 2.0, "profile_sim_compile_self_s": 1.1,
        })}
        assert perf.compare(baseline, current) == []

    def test_disjoint_experiments_and_metrics_skipped(self):
        cur = perf.latest_by_exp(
            [record("F21", {"input_words_total": 1e9}),
             record("F18", {"new_metric_cycles": 1e9})]
        )
        assert perf.compare(self.base(), cur) == []

    def test_zero_baseline_regression_has_inf_ratio(self):
        base = perf.latest_by_exp([record("F18", {"stall_cycles_total": 0})])
        cur = perf.latest_by_exp([record("F18", {"stall_cycles_total": 3})])
        (reg,) = perf.compare(base, cur)
        assert reg.ratio == float("inf")
        assert "REGRESSION" in str(reg)


class TestPerfcheckCLI:
    """Acceptance: the regression gate as wired into ``repro perfcheck``."""

    def write_artifacts(self, tmp_path, factor=1.0, stalls=10):
        base_rec = record(
            "F18", {"wall_time_s": 1.0, "stall_cycles_total": 10}
        )
        cur_rec = record(
            "F18",
            {"wall_time_s": 1.0 * factor, "stall_cycles_total": stalls},
        )
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(perf.make_baseline([base_rec])))
        cur = tmp_path / "history.jsonl"
        perf.append_history(cur, cur_rec)
        return base, cur

    def test_unchanged_baseline_exits_zero(self, tmp_path, capsys):
        base, cur = self.write_artifacts(tmp_path, factor=1.0)
        rc = main(["perfcheck", "--baseline", str(base),
                   "--current", str(cur)])
        assert rc == 0
        assert "no regressions" in capsys.readouterr().out

    def test_bumped_stall_cycles_exits_one_and_names_metric(
        self, tmp_path, capsys
    ):
        base, cur = self.write_artifacts(tmp_path, stalls=11)
        rc = main(["perfcheck", "--baseline", str(base),
                   "--current", str(cur)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION F18.stall_cycles_total [sim_cycles]" in out
        assert "perfcheck: FAIL" in out

    def test_doubled_wall_time_exits_zero(self, tmp_path, capsys):
        base, cur = self.write_artifacts(tmp_path, factor=2.0)
        rc = main(["perfcheck", "--baseline", str(base),
                   "--current", str(cur)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "F18: 1 gated metric(s) ok" in out
        assert "wall_time_s" not in out

    def test_update_baseline_writes_current_latest(self, tmp_path, capsys):
        base, cur = self.write_artifacts(tmp_path, factor=2.0)
        rc = main(["perfcheck", "--baseline", str(base),
                   "--current", str(cur), "--update-baseline"])
        assert rc == 0
        doc = json.loads(base.read_text())
        assert doc["version"] == perf.SCHEMA_VERSION
        assert doc["experiments"]["F18"]["metrics"]["wall_time_s"] == 2.0
        # After the update the gate passes again.
        assert main(["perfcheck", "--baseline", str(base),
                     "--current", str(cur)]) == 0

    def test_missing_files_and_bad_flags_exit_two(self, tmp_path):
        base, cur = self.write_artifacts(tmp_path)
        missing = str(tmp_path / "nope.json")
        assert main(["perfcheck", "--baseline", missing,
                     "--current", str(cur)]) == 2
        assert main(["perfcheck", "--baseline", str(base),
                     "--current", missing]) == 2
        # The class filter and threshold overrides are gone.
        for flag in (["--classes", "sim_cycles"],
                     ["--threshold", "sim_cycles=0.5"]):
            with pytest.raises(SystemExit) as exc:
                main(["perfcheck", "--baseline", str(base),
                      "--current", str(cur), *flag])
            assert exc.value.code == 2


class TestCorruptHistory:
    """A killed run truncates history.jsonl; the loader must survive it."""

    def write_history(self, tmp_path):
        path = tmp_path / "history.jsonl"
        perf.append_history(path, record("F18", {"stall_cycles_total": 0}))
        perf.append_history(path, record("F19", {"stall_cycles_total": 1}))
        return path

    def test_truncated_final_line_is_skipped_with_warning(self, tmp_path):
        path = self.write_history(tmp_path)
        whole = path.read_text()
        path.write_text(whole[: len(whole) - 40])  # kill mid-record
        skipped: list = []
        with pytest.warns(perf.PerfHistoryWarning, match="corrupt history"):
            records = perf.load_history(path, skipped=skipped)
        assert [r["exp_id"] for r in records] == ["F18"]
        assert len(skipped) == 1
        assert skipped[0][0] == 2  # 1-based line number

    def test_non_object_line_is_skipped(self, tmp_path):
        path = self.write_history(tmp_path)
        with path.open("a") as fh:
            fh.write("[1, 2, 3]\n")
        with pytest.warns(perf.PerfHistoryWarning, match="not a record"):
            records = perf.load_history(path)
        assert len(records) == 2

    def test_load_records_counts_skips(self, tmp_path):
        path = self.write_history(tmp_path)
        with path.open("a") as fh:
            fh.write('{"oops\n')
        skipped: list = []
        with pytest.warns(perf.PerfHistoryWarning):
            latest = perf.load_records(path, skipped=skipped)
        assert set(latest) == {"F18", "F19"}
        assert len(skipped) == 1

    def test_perfcheck_reports_skipped_count(self, tmp_path, capsys):
        path = self.write_history(tmp_path)
        with path.open("a") as fh:
            fh.write('{"oops\n')
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(
            perf.make_baseline([record("F18", {"stall_cycles_total": 0}),
                                record("F19", {"stall_cycles_total": 1})])
        ))
        with pytest.warns(perf.PerfHistoryWarning):
            rc = main(["perfcheck", "--baseline", str(base),
                       "--current", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "skipped 1 corrupt history line(s)" in out


class TestRecordsWithoutExpId:
    def test_latest_by_exp_skips_and_warns(self):
        good = record("F18", {"stall_cycles_total": 0})
        with pytest.warns(perf.PerfHistoryWarning, match="without exp_id"):
            latest = perf.latest_by_exp([{"metrics": {"x": 1}}, good])
        assert set(latest) == {"F18"}

    def test_rollup_skips_unkeyable_records(self):
        good = record("F18", {"stall_cycles_total": 0})
        doc = perf.rollup([{"metrics": {"x": 1}}, good])
        assert set(doc["experiments"]) == {"F18"}


class TestNewMetricFindings:
    def make_maps(self):
        baseline = {"F18": record("F18", {"stall_cycles_total": 0})}
        current = {
            "F18": record(
                "F18",
                {"stall_cycles_total": 0, "max_r_memory_words": 4,
                 "wall_vector_s": 0.01},
            )
        }
        return baseline, current

    def test_find_new_metrics_classifies(self):
        baseline, current = self.make_maps()
        # Only gated metrics are findings; a new wall time is not.
        assert perf.find_new_metrics(baseline, current) == [
            ("F18", "max_r_memory_words", "memory_traffic")
        ]

    def test_new_metric_is_reported_but_not_gating(self, tmp_path, capsys):
        baseline, current = self.make_maps()
        base = tmp_path / "baseline.json"
        base.write_text(json.dumps(perf.make_baseline(baseline.values())))
        cur = tmp_path / "history.jsonl"
        perf.append_history(cur, current["F18"])
        rc = main(["perfcheck", "--baseline", str(base),
                   "--current", str(cur)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "NEW METRIC F18.max_r_memory_words [memory_traffic]" in out
        assert "wall_vector_s" not in out
        assert "no regressions" in out


class TestRunIdStamping:
    def test_make_record_carries_run_id(self):
        rec = perf.make_record(
            "F20", {"wall_time_s": 0.5}, run_id="bench-abc123def456"
        )
        assert rec["run_id"] == "bench-abc123def456"
        assert perf.make_record("F20", {})["run_id"] is None

    def test_rollup_trajectory_keeps_run_id(self):
        records = [
            perf.make_record("F20", {"x": 1.0}, run_id="bench-aaa"),
            perf.make_record("F20", {"x": 2.0}, run_id=None),
        ]
        traj = perf.rollup(records)
        run_ids = [r["run_id"] for r in traj["experiments"]["F20"]["runs"]]
        assert run_ids == ["bench-aaa", None]

    def test_format_report_names_source_ledgers(self):
        base = {"F20": perf.make_record("F20", {"x": 1.0})}
        cur = {"F20": perf.make_record("F20", {"x": 1.0},
                                       run_id="bench-abc")}
        text = perf.format_report(base, cur, [])
        assert "run ledger" in text and "bench-abc" in text
        # No ledger -> no dangling header line.
        text = perf.format_report(base, base, [])
        assert "run ledger" not in text
