"""The partitioning approaches of Section 2 besides cut-and-pile.

LPGS / cut-and-pile (Fig. 2), the scheme the paper adopts, is the
methodology itself: :func:`repro.core.partitioner.partition`.

* :mod:`repro.partitioning.coalescing` — LSGP / coalescing (Fig. 1);
* :mod:`repro.partitioning.decomposition` — decomposition into
  sub-algorithms (Fig. 3, Navarro et al.);
* :mod:`repro.partitioning.hybrid` — the combined scheme the paper
  conjectures (cut-and-pile first, then coalescing within each pile).
"""
