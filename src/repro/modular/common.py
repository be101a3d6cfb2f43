"""Shared pieces of the modular distributed plans.

All of Fig. 3/4/5 use the same skeleton per input relation:
scan -> LocalHistogram -> MpiHistogram -> MpiExchange (radix on the key,
optionally compressed), and the same local step inside the first NestedMap:
RowScan -> LocalPartitioning -> CartesianProduct with the network partition
id. MpiExchange and LocalPartitioning count their own partitions, so the
one LocalHistogram per side only feeds MpiHistogram, whose global sizes
the exchange's RMA windows need. Factoring these out *is* the paper's
reuse claim.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.compression import CompressionSpec
from repro.core.expr import Expr, col, pmod
from repro.core.ops import (
    CartesianProduct,
    LocalHistogram,
    LocalPartitioning,
    MpiExchange,
    MpiHistogram,
    ParameterLookup,
    Projection,
    RowScan,
)
from repro.core.ops.base import SubOperator


@dataclass(frozen=True)
class JoinConfig:
    """Partitioning geometry shared by all distributed plans.

    ``n_net`` network partitions radix-partition the key's low
    ``net_bits`` bits across ranks; ``n_loc`` local partitions use the next
    ``loc_bits`` bits (cache-sized sub-partitions in the paper).
    Compression (one int64 word on the wire, see ``CompressionSpec``)
    requires dense <key,value> inputs and ``n_net == 2**net_bits``.

    The partition ids are integer expressions (``net_pid``, ``loc_pid``),
    which the evaluator computes with numpy and the Spark lowering with
    Catalyst.
    """

    n_net: int
    loc_bits: int = 3
    key: str = "k"
    compress: bool = False
    p_bits: int = 27

    @property
    def net_bits(self) -> int:
        b = int(self.n_net - 1).bit_length()
        if self.compress and (1 << b) != self.n_net:
            raise ValueError("compression requires a power-of-two network fan-out")
        return b

    @property
    def n_loc(self) -> int:
        return 1 << self.loc_bits

    def spec(self, value_field: str) -> Optional[CompressionSpec]:
        if not self.compress:
            return None
        return CompressionSpec(
            p_bits=self.p_bits, f_bits=self.net_bits,
            key_field=self.key, value_field=value_field,
        )

    # -- partition-id functions (identity hash + radix, as in the paper) ----
    def net_pid(self) -> Expr:
        """``pmod(key, n_net)``: in ``[0, n_net)`` for negative keys too."""
        return pmod(col(self.key), self.n_net)

    def loc_pid(self, value_field: str) -> Expr:
        """Local radix on the key bits above the network bits; compressed
        data stores exactly those bits as the word's key-high part."""
        spec = self.spec(value_field)
        high = spec.key_high if spec is not None else col(self.key) >> self.net_bits
        return high & (self.n_loc - 1)


def rank_input(field: str) -> RowScan:
    """Per-rank input reader: ParameterLookup -> Projection -> RowScan."""
    return RowScan(Projection(ParameterLookup(), [field]), field)


def network_partition(
    cfg: JoinConfig,
    data: SubOperator,
    value_field: str,
    pid_field: str,
    data_field: str,
) -> MpiExchange:
    """The reusable histogram + exchange skeleton of one relation side."""
    gh = MpiHistogram(LocalHistogram(data, cfg.n_net, cfg.net_pid()), cfg.n_net)
    return MpiExchange(
        data, gh, cfg.n_net, cfg.net_pid(),
        compression=cfg.spec(value_field),
        pid_field=pid_field, data_field=data_field,
    )


def local_partition_side(
    cfg: JoinConfig,
    pl: ParameterLookup,
    value_field: str,
    net_pid_field: str,
    net_data_field: str,
    loc_pid_field: str,
    loc_data_field: str,
) -> CartesianProduct:
    """Inside the first NestedMap: re-partition one side locally and tag
    every local partition with the network partition id (Fig. 3)."""
    pid_tuple = Projection(pl, [net_pid_field])
    data = RowScan(Projection(pl, [net_data_field]), net_data_field)
    lp = LocalPartitioning(
        data, cfg.n_loc, cfg.loc_pid(value_field),
        pid_field=loc_pid_field, data_field=loc_data_field,
    )
    return CartesianProduct(pid_tuple, lp)
