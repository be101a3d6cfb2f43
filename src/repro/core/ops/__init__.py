"""The Modularis sub-operators (Section 3.3 of the paper).

Four categories:

* orchestration — ``ParameterLookup``, ``NestedMap``
* data processing — ``Map``, ``ParametrizedMap``, ``Projection``,
  ``CartesianProduct``, ``Filter``, ``Reduce``, ``ReduceByKey``, ``Zip``,
  ``LocalHistogram``, ``BuildProbe``
* network — ``MpiExecutor``, ``MpiHistogram``, ``MpiExchange``
* materialize & scan — ``LocalPartitioning``, ``RowScan``,
  ``MaterializeRowVector``

Every operator has one execution semantics, its batch kernel
(``batches``); user code enters each as one callable over a batch, or an
aggregate spec. Network operators always run on the rank's communicator
in the execution context (``MpiExecutor`` sets it; one rank is
``SimCluster(1)``). Every operator exported here is used by at least one
plan in ``repro.modular`` or ``repro.queries``.
"""
from repro.core.ops.base import ExecContext, SubOperator  # noqa: F401
from repro.core.ops.orchestration import NestedMap, ParameterLookup  # noqa: F401
from repro.core.ops.processing import (  # noqa: F401
    BuildProbe,
    CartesianProduct,
    Filter,
    LocalHistogram,
    Map,
    ParametrizedMap,
    Projection,
    Reduce,
    ReduceByKey,
    Zip,
)
from repro.core.ops.network import (  # noqa: F401
    MpiExchange,
    MpiExecutor,
    MpiHistogram,
)
from repro.core.ops.matscan import (  # noqa: F401
    LocalPartitioning,
    MaterializeRowVector,
    RowScan,
)
