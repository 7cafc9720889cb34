"""RL5xx/RL6xx planner tiers: seeded miscompiles, bounds, cache, preflight.

Four contracts:

* every structural RL5xx pass flags its guaranteed-firing defect from
  ``miscompile_corpus`` while the clean program stays silent;
* RL601's critical-path bound is *tight* on every shipped configuration
  (the static bound equals the simulated makespan);
* linting an unchanged plan twice is served from the fingerprint-keyed
  lint cache, observable via ``repro_lint_cache_hits_total``;
* the env-gated post-compile preflight rejects a miscompiled program
  with :class:`LintError` and seeds the lint cache on success.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import pytest

from repro.arrays.vector_compile import (
    clear_compiled_cache,
    get_compiled,
)
from repro.core.partitioner import partition_transitive_closure
from repro.core.semiring import BOOLEAN
from repro.lint import (
    LintError,
    LintTarget,
    SHIPPED_CONFIGS,
    Severity,
    clear_lint_cache,
    lint_cache_info,
    lint_compiled,
    lint_target,
    run_lint,
)
from repro.lint.planner import planner_pass_names, planner_preflight
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.obs.profile import critical_path

from .miscompile_corpus import (
    MISCOMPILES,
    clean_target,
    wrong_semiring_step,
)


@pytest.fixture(autouse=True)
def fresh_state():
    """Isolated metrics registry and an empty lint cache per test."""
    prev = set_registry(MetricsRegistry())
    clear_lint_cache()
    yield
    clear_lint_cache()
    set_registry(prev)


@pytest.fixture(scope="module")
def base():
    """One clean compiled design shared by the corpus tests (read-only)."""
    return clean_target()


def _planner_lint(target: LintTarget, only: str | None = None):
    passes = [only] if only else list(planner_pass_names())
    return run_lint(target, passes=passes)


# ----------------------------------------------------------------------
# RL5xx — the seeded miscompile corpus
# ----------------------------------------------------------------------
def test_clean_program_planner_tiers_silent(base) -> None:
    report = _planner_lint(base)
    assert report.ok, report.to_text()
    assert [d for d in report.diagnostics
            if d.severity is Severity.ERROR] == []


@pytest.mark.parametrize("code", sorted(MISCOMPILES))
def test_each_rl5xx_flags_its_miscompile(base, code: str) -> None:
    pass_name, inject = MISCOMPILES[code]
    mutant = dataclasses.replace(base, compiled=inject(base.compiled))
    report = _planner_lint(mutant, only=pass_name)
    assert code in report.codes(), report.to_text()
    assert not report.ok
    # The clean program is silent under the very same pass.
    assert _planner_lint(base, only=pass_name).ok


def test_rl5xx_findings_carry_a_fix_suggestion(base) -> None:
    mutant = dataclasses.replace(
        base, compiled=wrong_semiring_step(base.compiled)
    )
    report = _planner_lint(mutant, only="plan.typing")
    assert report.diagnostics
    assert all(d.suggestion for d in report.diagnostics)


def test_rl505_flags_undocumented_fallback_reason(base) -> None:
    from repro.obs import runlog

    counter = runlog.event_counter("repro_vector_fallback_total")
    counter.inc(reason="probe")  # documented: stays silent
    report = _planner_lint(base, only="plan.fallbacks")
    assert report.ok
    counter.inc(reason="mystery-escape")  # undocumented: fires
    report = _planner_lint(base, only="plan.fallbacks")
    assert "RL505" in report.codes()
    assert "mystery-escape" in report.to_text()


# ----------------------------------------------------------------------
# RL6xx — static cost bounds and anti-patterns
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda c: c.name)
def test_rl601_bound_is_tight_on_every_shipped_config(config) -> None:
    target = config.build()
    path = critical_path(target.exec_plan, target.dg)
    assert path.length == target.exec_plan.makespan, config.name


def test_rl601_flags_tampered_makespan(base) -> None:
    mutant = dataclasses.replace(
        base,
        compiled=dataclasses.replace(
            base.compiled, makespan=base.compiled.makespan + 3
        ),
    )
    report = _planner_lint(mutant, only="cost.makespan")
    assert "RL601" in report.codes()
    assert not report.ok


def test_rl602_flags_tampered_static_measures(base) -> None:
    mutant = dataclasses.replace(
        base,
        compiled=dataclasses.replace(
            base.compiled,
            memory_words=base.compiled.memory_words + 5,
            busy=base.compiled.busy - 1,
        ),
    )
    report = _planner_lint(mutant, only="cost.traffic")
    msgs = [d.message for d in report.diagnostics]
    assert "RL602" in report.codes()
    assert any("memory_words" in m for m in msgs)
    assert any("busy" in m for m in msgs)


def test_rl603_flags_demand_over_bound(base) -> None:
    starved = dataclasses.replace(base, io_bound=Fraction(1, 1000))
    report = _planner_lint(starved, only="cost.iobandwidth")
    assert "RL603" in report.codes()
    assert report.ok  # warn severity: no error findings


def test_rl604_flags_fragmented_program(base) -> None:
    cp = base.compiled
    narrow = cp.steps[: len(cp.steps)]
    # Rebuild as many single-entry batches: same arrays, width 1 each.
    steps = tuple(
        dataclasses.replace(
            s,
            out_idx=s.out_idx[:1],
            role_idx=tuple(idx[:1] for idx in s.role_idx),
        )
        for s in narrow
        for _ in range(2)
    )
    assert len(steps) > 8
    mutant = dataclasses.replace(
        base, compiled=dataclasses.replace(cp, steps=steps)
    )
    report = _planner_lint(mutant, only="cost.fragmentation")
    assert "RL604" in report.codes()


def test_rl605_flags_chronic_underutilization(base) -> None:
    mutant = dataclasses.replace(
        base, compiled=dataclasses.replace(base.compiled, busy=1)
    )
    report = _planner_lint(mutant, only="cost.utilization")
    assert "RL605" in report.codes()


def test_rl606_flags_exhausted_headroom(base) -> None:
    cp = base.compiled
    demand = Fraction(len(cp.input_ids), cp.makespan)
    tight = dataclasses.replace(base, io_bound=demand * Fraction(100, 95))
    report = _planner_lint(tight, only="cost.headroom")
    assert "RL606" in report.codes()
    # Generous headroom: silent.
    roomy = dataclasses.replace(base, io_bound=demand * 2)
    assert _planner_lint(roomy, only="cost.headroom").ok


# ----------------------------------------------------------------------
# Shipped configs stay zero-error under the full planner tiers
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", SHIPPED_CONFIGS, ids=lambda c: c.name)
def test_shipped_configs_zero_error_with_planner(config) -> None:
    report = lint_target(config.build(), planner=True)
    errors = [
        d for d in report.diagnostics if d.severity is Severity.ERROR
    ]
    assert errors == [], report.to_text()
    run = set(report.passes_run)
    assert {"plan.coverage", "cost.makespan"} <= run


# ----------------------------------------------------------------------
# The incremental lint cache
# ----------------------------------------------------------------------
def test_lint_cache_hit_on_unchanged_fingerprint() -> None:
    impl = partition_transitive_closure(n=6, m=3)
    first = lint_compiled(impl.exec_plan, impl.dg)
    info = lint_cache_info()
    assert info["hits"] == 0 and info["misses"] == 1
    second = lint_compiled(impl.exec_plan, impl.dg)
    info = lint_cache_info()
    assert info["hits"] == 1 and info["misses"] == 1
    assert second.diagnostics == first.diagnostics
    assert second.passes_run == first.passes_run
    # The cached copy is isolated: mutating a served report is safe.
    second.diagnostics.clear()
    third = lint_compiled(impl.exec_plan, impl.dg)
    assert third.diagnostics == first.diagnostics


def test_lint_cache_keyed_on_io_bound() -> None:
    impl = partition_transitive_closure(n=6, m=3)
    lint_compiled(impl.exec_plan, impl.dg, io_bound=Fraction(1, 2))
    lint_compiled(impl.exec_plan, impl.dg, io_bound=Fraction(1, 3))
    assert lint_cache_info()["misses"] == 2
    lint_compiled(impl.exec_plan, impl.dg, io_bound=Fraction(1, 2))
    assert lint_cache_info()["hits"] == 1


# ----------------------------------------------------------------------
# The env-gated post-compile preflight
# ----------------------------------------------------------------------
def test_preflight_rejects_a_miscompile(base) -> None:
    with pytest.raises(LintError) as exc:
        planner_preflight(
            wrong_semiring_step(base.compiled),
            base.exec_plan,
            base.dg,
            BOOLEAN,
        )
    assert "RL503" in exc.value.report.codes()


def test_preflight_env_gate_seeds_the_lint_cache(monkeypatch) -> None:
    monkeypatch.setenv("REPRO_LINT_PLANNER", "1")
    clear_compiled_cache()
    impl = partition_transitive_closure(n=6, m=3)
    get_compiled(impl.exec_plan, impl.dg, BOOLEAN)  # preflight runs
    assert lint_cache_info() == {"hits": 0, "misses": 1, "size": 1}
    # An explicit planner lint of the same plan is now a cache hit.
    lint_compiled(impl.exec_plan, impl.dg)
    assert lint_cache_info()["hits"] == 1


def test_preflight_env_gate_off_by_default(monkeypatch) -> None:
    monkeypatch.delenv("REPRO_LINT_PLANNER", raising=False)
    clear_compiled_cache()
    impl = partition_transitive_closure(n=6, m=3)
    get_compiled(impl.exec_plan, impl.dg, BOOLEAN)
    assert lint_cache_info()["misses"] == 0
