"""Tests for the synthetic data generators."""
import numpy as np
import pandas as pd
import pytest

from repro import synth_data as sd


class TestDenseKV:
    def test_shape_and_dense_domain(self):
        pdf = sd.dense_kv_pdf(1024, seed=1)
        assert len(pdf) == 1024
        assert pdf["k"].min() == 0 and pdf["k"].max() == 1023
        assert sorted(pdf["v"]) == list(range(1024))

    def test_multiplicity(self):
        pdf = sd.dense_kv_pdf(1024, multiplicity=4, seed=2)
        counts = pdf["k"].value_counts()
        assert (counts == 4).all()
        assert len(counts) == 256

    def test_bad_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            sd.dense_kv_pdf(10, multiplicity=3)

    def test_deterministic_in_seed(self):
        a = sd.dense_kv_pdf(256, seed=5)
        b = sd.dense_kv_pdf(256, seed=5)
        pd.testing.assert_frame_equal(a, b)


class TestTpchLite:
    def test_lineitem_has_query_columns(self):
        li = sd.lineitem_pdf(sf=0.001)
        for c in ("l_orderkey", "l_shipdate", "l_commitdate", "l_receiptdate",
                  "l_shipmode", "l_shipinstruct", "l_extendedprice", "l_discount",
                  "l_quantity", "l_partkey"):
            assert c in li.columns

    def test_receipt_after_ship(self):
        li = sd.lineitem_pdf(sf=0.001)
        assert (li["l_receiptdate"] > li["l_shipdate"]).all()

    def test_orders_keys_dense(self):
        o = sd.orders_pdf(sf=0.001)
        assert list(o["o_orderkey"]) == list(range(1, len(o) + 1))

    def test_part_has_promo_and_q19_values(self):
        p = sd.part_pdf(sf=0.01)
        assert (p["p_type"] == "PROMO").any()
        assert p["p_brand"].isin(["Brand#12", "Brand#23", "Brand#34"]).any()
        assert p["p_container"].isin(["SM CASE", "MED BAG", "LG CASE"]).any()

    def test_foreign_keys_resolve(self):
        li = sd.lineitem_pdf(sf=0.002)
        o = sd.orders_pdf(sf=0.002)
        p = sd.part_pdf(sf=0.002)
        assert li["l_orderkey"].max() <= o["o_orderkey"].max()
        assert li["l_partkey"].max() <= p["p_partkey"].max()

    def test_spark_wrappers(self, spark):
        assert sd.lineitem(spark, sf=0.0005).count() >= 1
