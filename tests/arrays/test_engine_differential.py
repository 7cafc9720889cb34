"""Differential harness: every array engine on generated closure inputs.

Seeded Hypothesis (``derandomize=True``) draws a problem size
``n = 3..7``, a semiring (boolean or min-plus), an array geometry
(linear or mesh; designs are built once per ``(n, geometry, semiring)``)
and an input matrix: random, all-zero, all-one or the identity.  On each
one these engines must return the same matrix:

* FPDG evaluation of the regularized graph (:func:`run_graph`);
* the reference cycle interpreter;
* the vector replay bound from an :class:`InputGrid` (one scatter);
* the vector replay through a plain ``dict(make_inputs(a))`` (the
  mapping path);
* the batched slot replay of a boolean plan with its bit-packed kernel
  switched off, next to the bit-packed replay itself;
* :func:`closure_words` on the packed matrix (boolean);
* Warshall / :func:`closure_reference`.

Every static :class:`SimResult` field must also agree across the two
simulator backends.  The tier-1 profile runs ``REPRO_DIFF_EXAMPLES``
examples (default 40); CI raises it for a larger sweep.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.transitive_closure import make_inputs, run_graph
from repro.algorithms.warshall import warshall
from repro.arrays.cycle_sim import simulate
from repro.arrays.vector_compile import get_compiled
from repro.arrays.vector_sim import simulate_vector
from repro.core.bitmatrix import closure_words, pack_rows, unpack_rows
from repro.core.partitioner import partition_transitive_closure
from repro.core.semiring import BOOLEAN, MIN_PLUS, closure_reference

from test_vector_sim import assert_identical

EXAMPLES = int(os.environ.get("REPRO_DIFF_EXAMPLES", "40"))
#: Wall-clock budget of the tier-1 profile, in seconds.
BUDGET_S = 20.0
SEMIRINGS = {"boolean": BOOLEAN, "min_plus": MIN_PLUS}
#: geometry -> cells (a 2 x 2 mesh)
GEOMETRIES = {"linear": 2, "mesh": 4}
KINDS = ("random", "zeros", "ones", "identity")


@functools.lru_cache(maxsize=None)
def design(n: int, geometry: str, semiring: str):
    """The partitioned implementation, with its plan compiled once."""
    sr = SEMIRINGS[semiring]
    impl = partition_transitive_closure(
        n=n, m=GEOMETRIES[geometry], geometry=geometry, semiring=sr
    )
    get_compiled(impl.exec_plan, impl.dg, sr)
    return impl


def make_matrix(kind: str, n: int, semiring: str, seed: int) -> np.ndarray:
    sr = SEMIRINGS[semiring]
    if kind == "random":
        return sr.random_matrix(n, np.random.default_rng(seed))
    if kind == "zeros":
        return np.zeros((n, n))
    if kind == "ones":
        return np.ones((n, n))
    return np.eye(n)


def check_engines(
    n: int, geometry: str, semiring: str, kind: str, seed: int
) -> None:
    sr = SEMIRINGS[semiring]
    impl = design(n, geometry, semiring)
    dg, ep = impl.dg, impl.exec_plan
    a = make_matrix(kind, n, semiring, seed)

    ref = simulate(ep, dg, make_inputs(a, sr), sr)
    vec = simulate_vector(ep, dg, make_inputs(a, sr), sr)
    via_dict = simulate_vector(ep, dg, dict(make_inputs(a, sr)), sr)
    assert_identical(ref, vec)
    assert_identical(ref, via_dict)

    compiled = get_compiled(ep, dg, sr)
    results = {
        "fpdg": run_graph(dg, a, sr),
        "reference": ref.output_matrix(n, sr),
        "vector-grid": vec.output_matrix(n, sr),
        "vector-dict": via_dict.output_matrix(n, sr),
        "closure_reference": closure_reference(a, sr),
    }
    if semiring == "boolean":
        assert compiled.bitpack is not None
        batched = dataclasses.replace(compiled, bitpack=None)
        forced = sr.matrix(a)
        results["batched"] = batched.replay(make_inputs(a, sr)).output_matrix(n)
        results["closure_words"] = unpack_rows(
            closure_words(pack_rows(forced), n), n
        )
        results["warshall"] = warshall(a)
    expected = results["closure_reference"]
    for name, got in results.items():
        assert got.dtype == expected.dtype, name
        assert np.array_equal(got, expected), name


cases = st.tuples(
    st.integers(3, 7),
    st.sampled_from(sorted(GEOMETRIES)),
    st.sampled_from(sorted(SEMIRINGS)),
    st.sampled_from(KINDS),
    st.integers(0, 2**32 - 1),
)


def test_engine_differential_within_budget() -> None:
    """The seeded tier-1 profile: every engine on every drawn case."""

    @given(case=cases)
    @settings(max_examples=EXAMPLES, deadline=None, derandomize=True,
              database=None)
    def run(case: tuple) -> None:
        check_engines(*case)

    t0 = time.perf_counter()
    run()
    if EXAMPLES <= 40:
        assert time.perf_counter() - t0 < BUDGET_S
