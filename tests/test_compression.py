"""Unit + property tests for the drop-F-bits key/value compression."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compression import CompressionSpec
from repro.core.expr import col
from repro.core.ops import MpiExchange
from repro.core.types import INT64, RowVector, TupleType
from tests.helpers import source


class TestSpecValidation:
    def test_word_overflow_rejected(self):
        with pytest.raises(ValueError, match="> 64"):
            CompressionSpec(p_bits=40, f_bits=10)

    def test_boundary_fits(self):
        CompressionSpec(p_bits=34, f_bits=4)  # 2*34-4 = 64

    def test_bad_fanout_bits(self):
        with pytest.raises(ValueError):
            CompressionSpec(p_bits=8, f_bits=-1)
        with pytest.raises(ValueError):
            CompressionSpec(p_bits=8, f_bits=9)

    def test_zero_f_bits_roundtrip(self):
        spec = CompressionSpec(p_bits=16, f_bits=0)
        assert spec.fanout == 1
        keys = np.array([0, 5, 65535])
        vals = np.array([1, 2, 3])
        k2, v2 = spec.decompress(spec.compress(keys, vals), partition_id=0)
        assert (k2 == keys).all() and (v2 == vals).all()

    def test_fanout(self):
        assert CompressionSpec(p_bits=20, f_bits=3).fanout == 8


class TestRoundTrip:
    def test_simple_roundtrip(self):
        spec = CompressionSpec(p_bits=20, f_bits=3)
        keys = np.array([0, 1, 7, 8, 9, 123456, (1 << 20) - 1])
        vals = np.array([5, 6, 7, 8, 9, 10, 11])
        words = spec.compress(keys, vals)
        pids = keys & 7
        for p in range(8):
            m = pids == p
            k2, v2 = spec.decompress(words[m], p)
            assert (k2 == keys[m]).all()
            assert (v2 == vals[m]).all()

    def test_wire_is_one_word(self):
        """The exchange sends the one int64 ``word`` column."""
        spec = CompressionSpec(p_bits=20, f_bits=3)
        ex = MpiExchange(source("T"), source("H"), 8, col("k") & 7, compression=spec)
        pdf = pd.DataFrame({"k": [1, 9], "v": [2, 3]})
        pids, wire = ex.to_wire(RowVector(pdf))
        assert list(pids) == [1, 1] and list(wire) == ["kv"]
        assert wire["kv"].dtype == np.int64
        assert list(wire["kv"]) == list(spec.compress(pdf["k"], pdf["v"]))

    def test_domain_violation_rejected(self):
        spec = CompressionSpec(p_bits=8, f_bits=2)
        with pytest.raises(ValueError, match="dense"):
            spec.compress(np.array([300]), np.array([0]))
        with pytest.raises(ValueError, match="dense"):
            spec.compress(np.array([0]), np.array([300]))

    def test_negative_keys_and_values_rejected(self):
        spec = CompressionSpec(p_bits=8, f_bits=2)
        with pytest.raises(ValueError, match="key outside"):
            spec.compress(np.array([-1]), np.array([0]))
        with pytest.raises(ValueError, match="value outside"):
            spec.compress(np.array([0]), np.array([-1]))

    @pytest.mark.parametrize("p_bits, f_bits", [(32, 0), (33, 2), (34, 4)])
    def test_top_bit_set_at_the_word_limit(self, p_bits, f_bits):
        """At 2*P - F = 64 the int64 word is negative; split and restore
        still give back the exact keys and values."""
        spec = CompressionSpec(p_bits=p_bits, f_bits=f_bits)
        top = (1 << p_bits) - 1
        keys = np.array([top, top - spec.fanout, 1 << (p_bits - 1), 0], dtype=np.int64)
        keys -= keys % spec.fanout  # all in partition 0
        vals = np.array([top, 0, 1, top], dtype=np.int64)
        words = spec.compress(keys, vals)
        assert words.dtype == np.int64 and (words[:3] < 0).all()
        k_hi, v = spec.split(words)
        assert (k_hi == keys >> f_bits).all() and (v == vals).all()
        k2, v2 = spec.decompress(words, partition_id=0)
        assert (k2 == keys).all() and (v2 == vals).all()

    def test_extra_columns_rejected(self):
        """On the exchange's frame, and at typing, where the Spark lowering
        takes the wire type from."""
        spec = CompressionSpec(p_bits=8, f_bits=2)
        ex = MpiExchange(source("T"), source("H"), 4, col("k") & 3, compression=spec)
        with pytest.raises(ValueError, match="extra cols"):
            ex.to_wire(RowVector({"k": [1], "v": [2], "z": [3]}))
        with pytest.raises(ValueError, match=r"extra cols: \['z'\]"):
            spec.wire_type(TupleType([("k", INT64), ("v", INT64), ("z", INT64)]))

    def test_pdf_roundtrip(self):
        """A relation's columns round-trip, as the GROUP BY restores them."""
        spec = CompressionSpec(p_bits=16, f_bits=2)
        pdf = pd.DataFrame({"k": [4, 8, 12], "v": [1, 2, 3]})  # all pid 0
        keys, values = spec.decompress(spec.compress(pdf["k"], pdf["v"]), partition_id=0)
        back = pd.DataFrame({"k": keys, "v": values})
        pd.testing.assert_frame_equal(back, pdf.astype("int64"))


@settings(max_examples=200, deadline=None)
@given(
    p_bits=st.integers(min_value=4, max_value=30),
    data=st.data(),
)
def test_roundtrip_property(p_bits, data):
    f_bits = data.draw(st.integers(min_value=1, max_value=min(p_bits, 8)))
    spec = CompressionSpec(p_bits=p_bits, f_bits=f_bits)
    n = data.draw(st.integers(min_value=0, max_value=64))
    keys = np.array(
        data.draw(st.lists(st.integers(0, (1 << p_bits) - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    vals = np.array(
        data.draw(st.lists(st.integers(0, (1 << p_bits) - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    words = spec.compress(keys, vals)
    pids = keys & ((1 << f_bits) - 1)
    for p in np.unique(pids):
        m = pids == p
        k2, v2 = spec.decompress(words[m], int(p))
        assert (k2 == keys[m]).all()
        assert (v2 == vals[m]).all()
