"""Tests for the command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_stages(capsys) -> None:
    out = run_cli(capsys, "stages", "--n", "5")
    assert "regular" in out and "unidirectional" in out
    assert "broadcasts" in out


def test_partition_with_simulation(capsys) -> None:
    out = run_cli(
        capsys, "partition", "--n", "8", "--m", "3", "--simulate", "--seed", "2"
    )
    assert "correct=True" in out
    assert "violations=0" in out


def test_partition_mesh_packed(capsys) -> None:
    out = run_cli(capsys, "partition", "--n", "8", "--m", "4",
                  "--geometry", "mesh")
    assert "mesh" in out


def test_ggraph_variants(capsys) -> None:
    for algo in ("tc", "lu", "faddeev", "givens"):
        out = run_cli(capsys, "ggraph", "--algorithm", algo, "--n", "5")
        assert "G-nodes" in out


def test_schedule(capsys) -> None:
    out = run_cli(capsys, "schedule", "--n", "8", "--m", "3")
    assert "->" in out


def test_level_render(capsys) -> None:
    out = run_cli(capsys, "level", "--n", "5", "--k", "1")
    assert "level k=1" in out
    assert "D" in out  # the delay column


def test_level_out_of_range() -> None:
    assert main(["level", "--n", "5", "--k", "9"]) == 2


def test_fixed(capsys) -> None:
    out = run_cli(capsys, "fixed", "--n", "6")
    assert "II=6" in out and "correct=True" in out


def test_trace_writes_chrome_json(capsys, tmp_path) -> None:
    import json

    out_file = tmp_path / "trace.json"
    out = run_cli(capsys, "trace", "--n", "6", "--m", "3",
                  "--trace-out", str(out_file))
    assert "stages traced" in out
    doc = json.loads(out_file.read_text())
    events = doc["traceEvents"]
    names = {e["name"] for e in events}
    # Wall-clock pipeline stages and per-cycle simulator events coexist.
    assert {"partition.group", "partition.schedule", "sim.simulate"} <= names
    assert any(e["ph"] == "X" and e["pid"] == 2 for e in events)  # sim fires
    assert any(e["ph"] == "C" for e in events)  # counter tracks
    for ev in events:
        assert {"name", "ph", "pid"} <= set(ev)


def test_stats_prometheus_and_json(capsys) -> None:
    import json

    prom = run_cli(capsys, "stats", "--n", "8", "--m", "3")
    assert "# TYPE repro_sim_makespan_cycles gauge" in prom
    assert "repro_sim_utilization" in prom
    assert "repro_expected_throughput" in prom
    assert "measured vs closed form" in prom

    out = run_cli(capsys, "stats", "--n", "8", "--m", "3",
                  "--format", "json")
    body = out.split("# measured vs closed form")[0]
    doc = json.loads(body)
    assert doc["repro_sim_makespan_cycles"]["type"] == "gauge"


def test_partition_trace_out(capsys, tmp_path) -> None:
    import json

    out_file = tmp_path / "p.json"
    out = run_cli(capsys, "partition", "--n", "8", "--m", "3", "--simulate",
                  "--trace-out", str(out_file))
    assert "correct=True" in out
    assert str(out_file) in out
    doc = json.loads(out_file.read_text())
    assert doc["traceEvents"]


def test_partition_trace_out_requires_simulate() -> None:
    assert main(["partition", "--n", "8", "--m", "3",
                 "--trace-out", "x.json"]) == 2


def test_faults_single_config(capsys) -> None:
    out = run_cli(capsys, "faults", "--config", "linear-n9-m3",
                  "--kinds", "transient")
    assert "fault campaign (seed 0)" in out
    assert "1/1 runs ok" in out


def test_faults_json_report_and_trace(capsys, tmp_path) -> None:
    import json

    report = tmp_path / "faults.json"
    trace = tmp_path / "rec.json"
    out = run_cli(capsys, "faults", "--config", "linear-n9-m3",
                  "--kinds", "permanent", "--format", "json",
                  "--out", str(report), "--trace-out", str(trace))
    assert "1/1 runs ok" in out
    doc = json.loads(report.read_text())
    assert doc["ok"] is True
    assert doc["runs"][0]["repartitions"] == 1
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e["ph"] == "X" and e["cat"] == "resilience.repartition"
               for e in events)


def test_faults_usage_errors() -> None:
    assert main(["faults", "--experiments", "--config", "x"]) == 2
    assert main(["faults", "--config", "nope"]) == 2
    assert main(["faults", "--kinds", "bogus"]) == 2


def test_parser_requires_command() -> None:
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_unknown_command_rejected() -> None:
    with pytest.raises(SystemExit):
        build_parser().parse_args(["teleport"])


#: argv -> the bad value its one-line error must name.
BAD_DESIGN_ARGS = [
    ("stages --n 0", "0"),
    ("ggraph --n 1", "1"),
    ("fixed --n 1", "1"),
    ("trace --n 2", "2"),
    ("dashboard --n 1", "1"),
    ("dashboard --sizes 1,9", "1,9"),
    ("partition --n 1", "1"),
    ("partition --n 12 --m 0", "0"),
    ("partition --geometry mesh --m 5", "5"),
    ("schedule --n 12 --m 0", "0"),
    ("stats --n 12 --m 0", "0"),
    ("lint --n 12 --m 0", "0"),
    ("profile --n 12 --m 0", "0"),
    ("partition --policy nope", "nope"),
    ("schedule --policy nope", "nope"),
    ("profile --policy nope", "nope"),
    ("faults --config linear-n9-m3 --jobs 0", "0"),
    ("reproduce F07 --jobs 0", "0"),
]


@pytest.mark.parametrize("argv, bad", BAD_DESIGN_ARGS)
def test_bad_design_argument_exits_two(capsys, argv: str, bad: str) -> None:
    try:
        rc = main(argv.split())
    except SystemExit as exc:  # argparse's own usage error
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert re.search(rf"\b{bad}\b", err.strip().splitlines()[-1])


#: ``repro closure`` argv (``{file}`` is a regular file) -> the text its
#: one-line error must name.
BAD_CLOSURE_ARGS = [
    ("--dataset kron:scale=4,edges=8,seed=-1", "-1"),
    ("--dataset kron:scale=12 --check ssc1 --check-sources -4", "-4"),
    ("--dataset kron:scale=12 --check ssc1 --check-sources 0", "0"),
    ("--dataset kron:scale=4 --out {file}/x", "{file}/x"),
]


@pytest.mark.parametrize("argv, bad", BAD_CLOSURE_ARGS)
def test_bad_closure_argument_exits_two(
    capsys, tmp_path, argv: str, bad: str
) -> None:
    regular = tmp_path / "regular"
    regular.write_text("")
    argv, bad = argv.format(file=regular), bad.format(file=regular)
    try:
        rc = main(["closure", *argv.split()])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert bad in err.strip().splitlines()[-1]


def test_policy_names_are_the_schedulers() -> None:
    from repro.cli import POLICIES
    from repro.core.gsets import SCHEDULE_POLICIES

    assert POLICIES == tuple(SCHEDULE_POLICIES)


def test_min_n_is_the_closure_front_ends() -> None:
    from repro.algorithms.transitive_closure import tc_full
    from repro.cli import MIN_N

    tc_full(MIN_N)
    with pytest.raises(ValueError, match=f"n >= {MIN_N}"):
        tc_full(MIN_N - 1)


def test_trace_out_creates_parent_dirs(capsys, tmp_path) -> None:
    import json

    out_file = tmp_path / "new_dir" / "nested" / "t.json"
    out = run_cli(capsys, "trace", "--n", "6", "--m", "3",
                  "--trace-out", str(out_file))
    assert "stages traced" in out
    names = {e["name"] for e in json.loads(out_file.read_text())["traceEvents"]}
    assert "sim.simulate" in names


def test_artefact_writers_create_parent_dirs(capsys, tmp_path) -> None:
    lint_out = tmp_path / "reports" / "lint.json"
    run_cli(capsys, "lint", "--n", "9", "--m", "3",
            "--format", "json", "--out", str(lint_out))
    assert lint_out.exists()

    faults_out = tmp_path / "campaigns" / "f.json"
    run_cli(capsys, "faults", "--config", "linear-n9-m3",
            "--kinds", "transient", "--format", "json",
            "--out", str(faults_out))
    assert faults_out.exists()

    dash_out = tmp_path / "site" / "dash.html"
    run_cli(capsys, "dashboard", "--out", str(dash_out),
            "--n", "6", "--m", "2")
    assert dash_out.exists()


def test_partition_backend_vector(capsys) -> None:
    out = run_cli(capsys, "partition", "--n", "8", "--m", "3", "--simulate",
                  "--backend", "vector", "--seed", "2")
    assert "correct=True" in out
    assert "violations=0" in out


def test_trace_backend_vector_keeps_sim_span(capsys, tmp_path) -> None:
    import json

    out_file = tmp_path / "t.json"
    run_cli(capsys, "trace", "--n", "6", "--m", "3",
            "--backend", "vector", "--trace-out", str(out_file))
    names = {e["name"] for e in json.loads(out_file.read_text())["traceEvents"]}
    # Tracing installs a probe, which forces the reference interpreter.
    assert "sim.simulate" in names


def test_bench_without_dataset_exits_two(capsys) -> None:
    # Experiment tables are ``reproduce``'s; ``bench`` needs a dataset.
    with pytest.raises(SystemExit) as exc:
        main(["bench", "F20"])
    assert exc.value.code == 2
    assert "--dataset" in capsys.readouterr().err


def test_faults_parallel_jobs_match_sequential(capsys) -> None:
    seq = run_cli(capsys, "faults", "--config", "linear-n9-m3")
    par_out = run_cli(capsys, "faults", "--config", "linear-n9-m3",
                      "--jobs", "2")
    assert par_out == seq


def test_faults_backend_vector(capsys) -> None:
    out = run_cli(capsys, "faults", "--config", "linear-n9-m3",
                  "--backend", "vector")
    assert "3/3 runs ok" in out


def test_faults_writes_run_ledger(capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    run_cli(capsys, "faults", "--config", "linear-n9-m3")
    ledgers = list(tmp_path.glob("faults-*.jsonl"))
    assert len(ledgers) == 1

    out = run_cli(capsys, "obs", "list", "--dir", str(tmp_path))
    assert "faults-" in out and "True" in out

    out = run_cli(capsys, "obs", "show", "--dir", str(tmp_path))
    for marker in ("run_start", "lint", "plan_cache", "backend",
                   "fault_inject", "fault_detect", "fault_recover",
                   "checkpoint", "oracle", "run_end"):
        assert marker in out, marker

    out = run_cli(capsys, "obs", "verify", "--dir", str(tmp_path))
    assert "1/1 ledger(s) clean" in out


def test_obs_diff_same_run_identical(capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    run_cli(capsys, "faults", "--config", "linear-n9-m3")
    run_id = next(tmp_path.glob("*.jsonl")).stem
    out = run_cli(capsys, "obs", "diff", run_id, run_id,
                  "--dir", str(tmp_path))
    assert "identical" in out


def test_obs_show_empty_dir_exits_one(capsys, tmp_path) -> None:
    assert main(["obs", "show", "--dir", str(tmp_path / "void")]) == 1
    err = capsys.readouterr().err
    assert "no ledgers under" in err
    assert "Traceback" not in err


def test_obs_show_missing_run_exits_one(capsys, tmp_path) -> None:
    assert main(["obs", "show", "nope-123", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "cannot read" in err


def test_obs_diff_missing_run_exits_one(capsys, tmp_path) -> None:
    assert main(["obs", "diff", "a-1", "b-2", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "cannot read" in err
    assert "Traceback" not in err


def test_obs_verify_empty_dir_exits_one(capsys, tmp_path) -> None:
    assert main(["obs", "verify", "--dir", str(tmp_path / "void")]) == 1
    err = capsys.readouterr().err
    assert "no ledgers under" in err


def test_obs_verify_flags_tampered_ledger(capsys, tmp_path,
                                          monkeypatch) -> None:
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    run_cli(capsys, "faults", "--config", "linear-n9-m3")
    path = next(tmp_path.glob("*.jsonl"))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")  # drop run_end
    assert main(["obs", "verify", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr()
    assert "FAIL" in err.out


def test_runlog_disabled_leaves_no_ledger(capsys, tmp_path,
                                          monkeypatch) -> None:
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RUNLOG", "0")
    run_cli(capsys, "faults", "--config", "linear-n9-m3")
    assert list(tmp_path.glob("*.jsonl")) == []


def test_profile_config_mode(capsys, tmp_path) -> None:
    import json

    out_json = tmp_path / "profile.json"
    out = run_cli(capsys, "profile", "--n", "9", "--m", "3",
                  "--json", "--out", str(out_json))
    assert str(out_json) in out
    doc = json.loads(out_json.read_text())
    assert doc["version"] == 1
    assert doc["kind"] == "repro-profile"
    # Self-times telescope: their sum equals the measured wall time.
    assert doc["self_sum_s"] == pytest.approx(doc["wall_s"], rel=0.05)
    [cp] = doc["critical_paths"]
    assert cp["matches_makespan"] is True
    assert cp["length"] == cp["makespan"]
    assert cp["hotspots"]
    assert doc["config"]["correct"] is True


def test_profile_text_flame_folded(capsys, tmp_path) -> None:
    flame = tmp_path / "flame.svg"
    folded = tmp_path / "stacks.folded"
    out = run_cli(capsys, "profile", "--n", "8", "--m", "3",
                  "--backend", "vector",
                  "--flame-out", str(flame),
                  "--folded-out", str(folded))
    assert "phases (top" in out
    assert "critical path [linear-n8-m3]" in out
    svg = flame.read_text()
    assert svg.startswith("<svg") and "http://www.w3.org/2000/svg" in svg
    lines = folded.read_text().splitlines()
    assert lines and all(line.rsplit(" ", 1)[1].isdigit() for line in lines)


def test_profile_from_run(capsys, tmp_path, monkeypatch) -> None:
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    run_cli(capsys, "faults", "--config", "linear-n9-m3",
            "--kinds", "transient")
    run_id = next(tmp_path.glob("faults-*.jsonl")).stem
    out = run_cli(capsys, "profile", "--from-run", run_id,
                  "--dir", str(tmp_path))
    assert "campaign.config" in out


def _phase_names(node, prefix=""):
    names = []
    for child in node["children"]:
        path = prefix + child["name"]
        names += [path, *_phase_names(child, path + ";")]
    return sorted(names)


def test_partition_ledger_holds_pipeline_stages(capsys, tmp_path,
                                                monkeypatch) -> None:
    import json

    from repro.obs import runlog

    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    run_cli(capsys, "partition", "--n", "24", "--m", "4", "--simulate",
            "--backend", "vector")
    [path] = tmp_path.glob("partition-*.jsonl")
    events, problems = runlog.read_ledger(path)
    assert problems == []
    assert runlog.verify_ledger(events) == []
    stages = {
        "frontend.tc_regular", "partition.group", "partition.select_gsets",
        "partition.schedule", "partition.verify", "partition.evaluate",
        "plan.partitioned", "sim.compile", "sim.vector",
    }
    for kind in ("stage_start", "stage_end"):
        seen = {ev["stage"] for ev in events if ev["event"] == kind}
        assert stages <= seen, (kind, stages - seen)

    out = run_cli(capsys, "profile", "--from-run", path.stem,
                  "--dir", str(tmp_path), "--json")
    phases = _phase_names(json.loads(out)["phases"])
    assert stages <= set(phases), stages - set(phases)


def test_profile_live_tree_matches_from_run(capsys, tmp_path,
                                            monkeypatch) -> None:
    import json

    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    live = json.loads(run_cli(capsys, "profile", "--n", "9", "--m", "3",
                              "--json"))
    [path] = tmp_path.glob("profile-*.jsonl")
    past = json.loads(run_cli(capsys, "profile", "--from-run", path.stem,
                              "--dir", str(tmp_path), "--json"))
    names = _phase_names(live["phases"])
    assert "profile.config;partition.group" in names
    assert names == _phase_names(past["phases"])


def test_profile_tree_without_ledger(capsys, tmp_path, monkeypatch) -> None:
    import json

    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_RUNLOG", "0")
    doc = json.loads(run_cli(capsys, "profile", "--n", "6", "--m", "3",
                             "--json"))
    assert "profile.config;sim.simulate" in _phase_names(doc["phases"])
    assert doc["self_sum_s"] == pytest.approx(doc["wall_s"], rel=0.05)
    assert list(tmp_path.glob("*.jsonl")) == []


def test_profile_from_run_records_into_dir(capsys, tmp_path,
                                          monkeypatch) -> None:
    led, cwd = tmp_path / "led", tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(led))
    run_cli(capsys, "closure", "--dataset", "kron:scale=4,edges=4")
    [path] = led.glob("closure-*.jsonl")
    monkeypatch.delenv("REPRO_RUNLOG_DIR")
    run_cli(capsys, "profile", "--from-run", path.stem, "--dir", str(led))
    assert not (cwd / "runs").exists()
    assert list(led.glob("profile-*.jsonl"))


def test_profile_usage_errors(tmp_path) -> None:
    assert main(["profile", "--experiment", "F18", "--n", "9"]) == 2
    assert main(["profile", "--experiment", "NOPE"]) == 2
    assert main(["profile", "--from-run", "ghost-1",
                 "--dir", str(tmp_path)]) == 1


def test_dashboard_includes_run_ledger_panel(capsys, tmp_path,
                                             monkeypatch) -> None:
    monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
    run_cli(capsys, "faults", "--config", "linear-n9-m3")
    out_html = tmp_path / "dash.html"
    run_cli(capsys, "dashboard", "--n", "6", "--m", "2",
            "--out", str(out_html))
    html = out_html.read_text()
    assert "Run ledger (recent runs)" in html
    assert "faults-" in html


# ----------------------------------------------------------------------
# Sparse datasets: the ``closure`` verb and ``bench --dataset``
# ----------------------------------------------------------------------

class TestClosureVerb:
    def test_kron_with_ssc12_check(self, capsys) -> None:
        out = run_cli(capsys, "closure", "--dataset", "kron:scale=5,edges=4",
                      "--check", "ssc12")
        assert "engine: bitpack" in out
        assert "agree=True" in out

    def test_engine_choices_agree(self, capsys) -> None:
        import json

        edges = None
        for engine in ("bitpack", "reference", "ssc1", "ssc2", "ssc12"):
            out = run_cli(capsys, "closure", "--dataset",
                          "kron:scale=4,edges=4,seed=1",
                          "--engine", engine, "--format", "json")
            doc = json.loads(out)
            if edges is None:
                edges = doc["closure_edges"]
            assert doc["closure_edges"] == edges, engine

    def test_edgelist_path_with_remap(self, capsys, tmp_path) -> None:
        p = tmp_path / "g.txt"
        p.write_text("# comment\n10 20\n20 30\n30 10\n")
        out = run_cli(capsys, "closure", "--dataset", str(p), "--remap",
                      "--check", "reference")
        assert "n=3" in out
        # A 3-cycle closes fully: 9 reachable pairs.
        assert "closure: 9 reachable pairs" in out
        assert "agree=True" in out

    def test_bad_spec_exits_two(self, capsys) -> None:
        assert main(["closure", "--dataset", "kron:whee=1"]) == 2
        assert "closure:" in capsys.readouterr().err

    def test_out_of_range_without_remap_exits_two(self, capsys,
                                                  tmp_path) -> None:
        p = tmp_path / "g.txt"
        p.write_text("0 1\n")
        assert main(["closure", "--dataset", str(p), "--n", "1"]) == 2
        assert "vertex-out-of-range" in capsys.readouterr().err

    def test_truncated_gzip_exits_two_with_one_line(self, capsys,
                                                    tmp_path) -> None:
        import gzip

        blob = gzip.compress(b"".join(b"%d %d\n" % (i, i + 1)
                                      for i in range(400)))
        p = tmp_path / "cut.txt.gz"
        p.write_bytes(blob[: len(blob) // 2])
        assert main(["closure", "--dataset", str(p)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("closure: io: ") and err.count("\n") == 1

    def test_ledger_holds_layer_tree(self, capsys, tmp_path,
                                     monkeypatch) -> None:
        import json

        from repro.obs import runlog

        monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
        run_cli(capsys, "closure", "--dataset", "kron:scale=12,edges=4",
                "--check", "ssc12")
        [path] = tmp_path.glob("closure-*.jsonl")
        events, problems = runlog.read_ledger(path)
        assert problems == [] and runlog.verify_ledger(events) == []
        ends = {ev["stage"]: ev for ev in events
                if ev["event"] == "stage_end"}
        assert ends["closure.compute"]["kernel"] == "bitpack-scc"
        assert ends["closure.check"]["sources"] == 64
        starts = {ev["stage"]: ev for ev in events
                  if ev["event"] == "stage_start"}
        assert starts["closure.compute"]["engine"] == "bitpack"
        assert starts["closure.check"]["engine"] == "ssc12"

        out = run_cli(capsys, "profile", "--from-run", path.stem,
                      "--dir", str(tmp_path), "--json")
        phases = set(_phase_names(json.loads(out)["phases"]))
        assert {"dataset.load", "closure.compute", "closure.check"} <= phases

    def test_out_writes_nested_json(self, capsys, tmp_path) -> None:
        import json

        out_file = tmp_path / "a" / "b" / "closure.json"
        run_cli(capsys, "closure", "--dataset", "kron:scale=4,edges=4",
                "--check", "reference", "--format", "json",
                "--out", str(out_file))
        doc = json.loads(out_file.read_text())
        assert doc["check"]["agree"] is True
        assert doc["dataset"]["n"] == 16

    @pytest.mark.parametrize("fmt", ("text", "json"))
    def test_reach_counts_read_once(self, capsys, monkeypatch,
                                    fmt: str) -> None:
        from repro.datasets.closure import ClosureResult

        # A plain property: the benchmark tracer wraps it via ``fget``.
        fget = ClosureResult.__dict__["reach_counts"].fget
        calls = []

        def counted(self):
            calls.append(self.engine)
            return fget(self)

        monkeypatch.setattr(ClosureResult, "reach_counts", property(counted))
        run_cli(capsys, "closure", "--dataset", "kron:scale=5,edges=4",
                "--check", "ssc12", "--format", fmt)
        assert calls == ["bitpack"]

    def test_emits_run_ledger(self, capsys, tmp_path, monkeypatch) -> None:
        monkeypatch.setenv("REPRO_RUNLOG_DIR", str(tmp_path))
        run_cli(capsys, "closure", "--dataset", "kron:scale=4,edges=4",
                "--check", "ssc2")
        out = run_cli(capsys, "obs", "show", "--dir", str(tmp_path))
        for marker in ("dataset", "closure", "closure_check"):
            assert marker in out, marker
        out = run_cli(capsys, "obs", "verify", "--dir", str(tmp_path))
        assert "1/1 ledger(s) clean" in out


class TestBenchDataset:
    def test_small_kron_runs_all_engines_and_arrays(self, capsys) -> None:
        out = run_cli(capsys, "bench", "--dataset", "kron:scale=3,edges=3")
        for engine in ("bitpack", "reference", "ssc1", "ssc2", "ssc12",
                       "array-reference", "array-vector"):
            assert engine in out, engine
        assert "False" not in out  # every engine agrees with the oracle

    def test_bad_spec_exits_two(self, capsys) -> None:
        assert main(["bench", "--dataset", "kron:"]) == 2


def test_new_artefact_writers_create_nested_dirs(capsys, tmp_path) -> None:
    """Satellite sweep: every ``*-out`` flag must mkdir its parents."""
    import json

    summary = tmp_path / "f" / "deep" / "summary.json"
    run_cli(capsys, "faults", "--config", "linear-n9-m3",
            "--kinds", "transient", "--summary-out", str(summary))
    assert json.loads(summary.read_text())["ok"] is True

    folded = tmp_path / "p" / "deep" / "stacks.folded"
    flame = tmp_path / "p" / "deeper" / "flame.svg"
    run_cli(capsys, "profile", "--n", "6", "--m", "3",
            "--folded-out", str(folded), "--flame-out", str(flame))
    assert folded.read_text().strip()
    assert flame.read_text().startswith("<svg")

    baseline = tmp_path / "l" / "deep" / "baseline.json"
    run_cli(capsys, "lint", "--n", "9", "--m", "3",
            "--baseline", str(baseline), "--update-baseline")
    assert baseline.exists()
    diff = tmp_path / "l" / "deeper" / "diff.json"
    run_cli(capsys, "lint", "--n", "9", "--m", "3",
            "--baseline", str(baseline), "--baseline-diff-out", str(diff))
    assert json.loads(diff.read_text())
