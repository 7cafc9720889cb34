"""Randomised end-to-end verification of a partitioned implementation.

One call answers "does this array design actually work?": it sweeps
random inputs (and, optionally, the named synthetic workloads) through
the cycle simulator, cross-checks every result against the software
oracle for the implementation's semiring, and accumulates the timing/
locality evidence into a single report.

    >>> from repro import partition_transitive_closure
    >>> from repro.core.verify import verify_implementation
    >>> impl = partition_transitive_closure(n=8, m=3)
    >>> report = verify_implementation(impl, trials=5, seed=0)
    >>> report.ok
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .partitioner import PartitionedImplementation
from .semiring import Semiring, closure_reference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..lint import LintReport

__all__ = ["VerificationReport", "verify_implementation"]


@dataclass
class VerificationReport:
    """Evidence gathered by :func:`verify_implementation`."""

    trials: int
    correct: int
    violation_trials: int
    stall_cycles: int
    max_memory_words: int
    mismatches: list[str] = field(default_factory=list)
    lint: "LintReport | None" = None

    @property
    def ok(self) -> bool:
        """Every trial correct, no timing violations anywhere.

        Static lint findings (``lint``) do not affect this: the dynamic
        evidence stands on its own, and the checker's verdict is
        reported separately (``lint.ok``).
        """
        return self.correct == self.trials and self.violation_trials == 0

    def summary(self) -> str:
        """One-line human summary."""
        status = "OK" if self.ok else "FAILED"
        line = (
            f"{status}: {self.correct}/{self.trials} correct, "
            f"{self.violation_trials} trials with violations, "
            f"{self.stall_cycles} stall cycles, "
            f"peak memory {self.max_memory_words} words"
        )
        if self.lint is not None:
            c = self.lint.counts()
            line += (
                f"; lint: {c['error']} error(s), {c['warning']} warning(s)"
            )
        return line


def _random_input(n: int, semiring: Semiring, rng: np.random.Generator) -> np.ndarray:
    density = float(rng.uniform(0.15, 0.6))
    return semiring.random_matrix(n, rng, density=density)


def verify_implementation(
    impl: PartitionedImplementation,
    trials: int = 10,
    seed: int = 0,
    extra_inputs: list[np.ndarray] | None = None,
    preflight: bool = True,
    backend: str | None = None,
) -> VerificationReport:
    """Sweep random inputs through the implementation and check everything.

    Parameters
    ----------
    impl:
        A partitioned implementation (from :func:`repro.partition` or
        :func:`repro.partition_transitive_closure`) whose graph uses the
        transitive-closure I/O naming.
    trials:
        Number of random matrices to run.
    extra_inputs:
        Additional adjacency/weight matrices (e.g. from
        :mod:`repro.algorithms.workloads`) appended to the sweep.
    preflight:
        Also run the static design checker (:mod:`repro.lint`) and
        attach its :class:`~repro.lint.LintReport` to the result's
        ``lint`` field.  Unlike the partitioner's ``preflight=True``
        this never raises — the point of verification is to gather all
        the evidence, static and dynamic, side by side.
    backend:
        Simulator backend for every trial (``"reference"`` /
        ``"vector"``; ``None`` uses the process default).  With the
        vector backend the plan is compiled once and every trial is a
        cached replay — see :mod:`repro.arrays.vector_compile`.
    """
    from ..arrays.vector_sim import resolve_backend
    from ..obs import runlog
    from ..obs.tracing import stage_span

    rng = np.random.default_rng(seed)
    n = len({nid[1] for nid in impl.dg.inputs})
    params = {
        "design": impl.dg.name,
        "geometry": impl.plan.geometry,
        "m": impl.plan.m,
        "trials": trials,
        "seed": seed,
        "backend": backend,
    }
    with runlog.run_scope("verify", params):
        runlog.record(
            "backend", backend=resolve_backend(backend),
            design=impl.dg.name,
        )
        lint_report = None
        if preflight:
            from ..lint import LintTarget, run_lint
            from .metrics import tc_io_bandwidth

            with stage_span("verify.preflight"):
                lint_report = run_lint(
                    LintTarget.from_implementation(
                        impl, io_bound=tc_io_bandwidth(n, impl.plan.m)
                    )
                )
        sr = impl.semiring
        inputs = [_random_input(n, sr, rng) for _ in range(trials)]
        for extra in extra_inputs or []:
            if extra.shape != (n, n):
                raise ValueError(
                    f"extra input shape {extra.shape} does not match n={n}"
                )
            inputs.append(np.asarray(extra))

        correct = 0
        violation_trials = 0
        max_mem = 0
        mismatches: list[str] = []
        with stage_span("verify.trials", trials=len(inputs)):
            for idx, a in enumerate(inputs):
                res = impl.simulate(a, backend=backend)
                if res.violations:
                    violation_trials += 1
                max_mem = max(max_mem, res.memory_words)
                got = res.output_matrix(n, sr)
                expected = closure_reference(a, sr)
                if np.array_equal(got, expected):
                    correct += 1
                else:
                    bad = int(np.sum(got != expected))
                    mismatches.append(
                        f"trial {idx}: {bad} mismatching entries"
                    )
        report = VerificationReport(
            trials=len(inputs),
            correct=correct,
            violation_trials=violation_trials,
            stall_cycles=impl.exec_plan.stall_cycles,
            max_memory_words=max_mem,
            mismatches=mismatches,
            lint=lint_report,
        )
        runlog.record(
            "oracle", design=impl.dg.name, checked=True, ok=report.ok,
            trials=report.trials, correct=report.correct,
        )
        return report
