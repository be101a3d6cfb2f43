"""Key/value compression used in the network-partitioning phase.

Reimplements the scheme of Barthels et al. (paper Section 4.1.1): with
identity hashing and radix partitioning of fan-out 2**F, the low F bits of
every key in a partition equal the partition id and can be dropped. If keys
and values come from a dense domain representable in P bits each, key and
value fit one 64-bit word when 2*P - F <= 64:

    word  = ((key >> F) << P) | value
    k_hi  = word >> P                  (logical shift: the key's high bits)
    key   = (k_hi << F) | partition_id
    value = word & (2**P - 1)

This halves the 16-byte <key, value> workload on the wire, exactly as in
the paper. The word is an int64 (the exchange's declared wire type, and
Spark's long): at 2*P - F = 64 its top bit is set, and ``key_high`` masks
the arithmetic shift's sign extension off. ``CompressionSpec`` is the only
code that knows this layout, and holds it as integer expressions
(``repro.core.expr``): ``word`` packs, ``key_high`` and ``value`` split, and
the evaluator (numpy) and the Spark lowering (``selectExpr``) both compile
them. Plans restore the dropped bits through its methods in a
ParametrizedMap.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.core.expr import Expr, col, in_range
from repro.core.types import INT64, TupleType


def _low_bits(n: int) -> int:
    """An int64 mask of the ``n`` low bits (all 64 bits at ``n >= 64``)."""
    return -1 if n >= 64 else (1 << n) - 1


@dataclass(frozen=True)
class CompressionSpec:
    """Parameters of the drop-F-bits compression.

    ``p_bits`` — domain width of keys and values (dense domain);
    ``f_bits`` — radix fan-out bits (partition count must be 2**f_bits);
    ``key_field``/``value_field`` — input columns; ``out_field`` — the
    single compressed int64 column on the wire.

    The layout is three expressions: ``word`` over the input columns
    (range-checking both against the dense domain), and ``key_high`` and
    ``value`` over ``out_field``.
    """

    p_bits: int
    f_bits: int
    key_field: str = "k"
    value_field: str = "v"
    out_field: str = "kv"
    word: Expr = field(init=False, repr=False, compare=False)
    key_high: Expr = field(init=False, repr=False, compare=False)
    value: Expr = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if 2 * self.p_bits - self.f_bits > 64:
            raise ValueError(
                f"2*P - F = {2 * self.p_bits - self.f_bits} > 64: "
                "key/value do not fit one 64-bit word"
            )
        # f_bits == 0 is the degenerate single-partition case: no bits are
        # dropped, key and value still pack into one word if 2*P <= 64.
        if not (0 <= self.f_bits <= self.p_bits):
            raise ValueError("need 0 <= f_bits <= p_bits")
        p, top = self.p_bits, _low_bits(self.p_bits)
        k = in_range(col(self.key_field), 0, top, f"key outside dense {p}-bit domain")
        v = in_range(col(self.value_field), 0, top, f"value outside dense {p}-bit domain")
        w = col(self.out_field)
        object.__setattr__(self, "word", ((k >> self.f_bits) << p) | v)
        object.__setattr__(self, "key_high", (w >> p) & _low_bits(64 - p))
        object.__setattr__(self, "value", w & top)

    @property
    def fanout(self) -> int:
        return 1 << self.f_bits

    def compress(self, keys: np.ndarray, values: np.ndarray) -> np.ndarray:
        """The ``word`` of every <key, value> pair."""
        return self.word.eval({self.key_field: keys, self.value_field: values})

    def split(self, words: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(k_hi, value)`` per word: inside one partition ``k_hi`` (the
        stored ``key >> F``) is an exact join/grouping key, without
        restoring the dropped bits."""
        frame = {self.out_field: words}
        return self.key_high.eval(frame), self.value.eval(frame)

    def restore(self, k_hi: np.ndarray, partition_id: int) -> np.ndarray:
        """The full keys of partition ``partition_id`` from their high bits."""
        return (np.asarray(k_hi, dtype=np.int64) << self.f_bits) | partition_id

    def decompress(self, words: np.ndarray, partition_id: int) -> Tuple[np.ndarray, np.ndarray]:
        k_hi, values = self.split(words)
        return self.restore(k_hi, partition_id), values

    def wire_type(self, in_type: TupleType) -> TupleType:
        """The type of the compressed tuples of input type ``in_type``."""
        self.check_pure(in_type.names)
        return TupleType([(self.out_field, INT64)])

    def check_pure(self, columns) -> None:
        """Raise unless ``columns`` are only the key and value: the word
        carries nothing else."""
        extra = [c for c in columns if c not in (self.key_field, self.value_field)]
        if extra:
            raise ValueError(
                f"compression applies to pure <key,value> workloads, extra cols: {extra}"
            )
