"""Kernels must not modify the batches they receive: ``concat`` hands a
lone batch downstream as is, and the ranks' inputs are views of the
caller's columns (``split_relation``), so an array a kernel writes to may
be a plan input, the caller's relation or another consumer's batch. Each
distributed plan runs twice over the same parameter ``RowVector``s; the
inputs and the relations they view must come out unchanged, and both runs
must agree."""
import numpy as np
import pytest

from repro.core import RowVector, vectorized
from repro.core.ops.base import ExecContext
from repro.modular.common import JoinConfig
from repro.modular.groupby import distributed_groupby_plan
from repro.modular.join import distributed_join_plan
from repro.modular.join_sequence import optimized_sequence_plan, relation_fields, value_fields
from repro.mpi.thread_backend import make_rank_inputs
from repro.synth_data import dense_kv_pdf

CFG = JoinConfig(n_net=4, loc_bits=2, compress=True, p_bits=16)


def join_case():
    rels = {"R": dense_kv_pdf(512, value_field="vr", seed=1),
            "S": dense_kv_pdf(512, value_field="vs", multiplicity=2, seed=2)}
    return distributed_join_plan(CFG), rels


def groupby_case():
    return distributed_groupby_plan(CFG), {"T": dense_kv_pdf(512, multiplicity=4, seed=3)}


def sequence_case():
    plain = JoinConfig(n_net=4, loc_bits=2)
    rels = {f: dense_kv_pdf(256, value_field=v, seed=4 + i)
            for i, (f, v) in enumerate(zip(relation_fields(2), value_fields(2)))}
    return optimized_sequence_plan(plain, 2), rels


def deep_copy(rv: RowVector) -> RowVector:
    """A copy that shares no array or nested RowVector with ``rv``."""
    cols = {}
    for c, a in rv.items():
        cols[c] = a.copy()
        if a.dtype == object:
            for i, v in enumerate(a):
                cols[c][i] = deep_copy(v) if isinstance(v, RowVector) else v
    return RowVector(cols)


@pytest.mark.parametrize("case", [join_case, groupby_case, sequence_case],
                         ids=["join", "groupby", "join-sequence"])
def test_two_runs_leave_inputs_unchanged(case):
    plan, rels = case()
    originals = {name: pdf.copy(deep=True) for name, pdf in rels.items()}
    params = make_rank_inputs(4, **rels)
    before = deep_copy(params["rank_inputs"])
    outs = [vectorized.run_to_pdf(plan, ExecContext(), params=params) for _ in range(2)]
    # RowVector equality compares every column, nested RowVectors too
    assert params["rank_inputs"] == before
    for name, pdf in rels.items():
        assert pdf.equals(originals[name]), name
    assert len(outs[0]) > 0
    assert outs[0].equals(outs[1])
