"""Modular (sub-operator) query plans from the paper's Section 4:

* ``join`` — the distributed radix hash join of Fig. 3, whose plan skeleton
  the other two reuse;
* ``join_sequence`` — naive and optimized sequences of joins (Fig. 4);
* ``groupby`` — the distributed GROUP BY of Fig. 5.

Each builder returns a ``Plan`` of sub-operators that runs unchanged on the
simulated MPI cluster (``Plan.collect`` + SimCluster) and is the input
to the Spark lowering in ``repro.core.lower``.
"""
