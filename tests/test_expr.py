"""The two compilers of ``repro.core.expr`` agree: numpy (the evaluator) and
Spark SQL (the lowering's ``selectExpr``) give equal partition ids and
compressed words on the same rows, for every expression ``JoinConfig`` and
``CompressionSpec`` build; and numpy gives the ids of the Python callables
the expressions replaced."""
import numpy as np
import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RowVector
from repro.core.expr import col, in_range, pmod
from repro.modular.common import JoinConfig

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1

#: every int64, with the extremes, zero and -1 drawn often
int64s = st.one_of(st.sampled_from([I64_MIN, I64_MIN + 1, -1, 0, 1, I64_MAX]),
                   st.integers(I64_MIN, I64_MAX))


@st.composite
def packed_configs(draw):
    """A compressing JoinConfig, often at 2*P - F = 64 (the word's top bit
    set)."""
    f_bits = draw(st.integers(0, 4))
    p_bits = draw(st.one_of(st.just((64 + f_bits) // 2), st.integers(max(f_bits, 1), 32)))
    return JoinConfig(n_net=1 << f_bits, loc_bits=draw(st.integers(0, 4)),
                      compress=True, p_bits=p_bits)


@st.composite
def domain_values(draw, p_bits, n):
    """``n`` values of the dense ``p_bits`` domain, 0 and 2**P - 1 often."""
    top = (1 << p_bits) - 1
    return np.array(draw(st.lists(st.one_of(st.sampled_from([0, 1, top]), st.integers(0, top)),
                                  min_size=n, max_size=n)), dtype=np.int64)


plain_configs = st.builds(JoinConfig, n_net=st.sampled_from([1, 2, 3, 4, 5, 8, 16]),
                          loc_bits=st.integers(0, 4))


def _low_bits(n):
    return np.int64(-1 if n >= 64 else (1 << n) - 1)


# -- the callables the expressions replaced, verbatim in numpy -------------

def lambda_net_pid(cfg, k):
    return (k % cfg.n_net).astype(np.int64)


def lambda_loc_pid(cfg, k):
    return (k.astype(np.int64) >> cfg.net_bits) & (cfg.n_loc - 1)


def lambda_loc_pid_packed(cfg, words):
    p = cfg.p_bits
    return ((words >> p) & _low_bits(64 - p)) & (cfg.n_loc - 1)


def lambda_compress(cfg, k, v):
    p = cfg.p_bits
    if len(k) and (int(k.min()) < 0 or int(k.max()) >> p):
        raise ValueError(f"key outside dense {p}-bit domain")
    if len(v) and (int(v.min()) < 0 or int(v.max()) >> p):
        raise ValueError(f"value outside dense {p}-bit domain")
    return ((k >> cfg.net_bits) << p) | v


def _spark_eval(spark, pdf, exprs):
    """Every expression as one ``selectExpr`` column over ``pdf``."""
    df = spark.createDataFrame(pdf).selectExpr(*[f"{e.sql()} AS e{i}" for i, e in enumerate(exprs)])
    rows = df.collect()
    return [np.array([row[i] for row in rows], dtype=np.int64) for i in range(len(exprs))]


class TestNumpyMatchesTheCallables:
    @settings(max_examples=200, deadline=None)
    @given(cfg=plain_configs, keys=st.lists(int64s, max_size=40))
    def test_partition_ids(self, cfg, keys):
        k = np.array(keys, dtype=np.int64)
        frame = pd.DataFrame({"k": k})
        np.testing.assert_array_equal(cfg.net_pid().eval(frame), lambda_net_pid(cfg, k))
        np.testing.assert_array_equal(cfg.loc_pid("v").eval(frame), lambda_loc_pid(cfg, k))

    @settings(max_examples=200, deadline=None)
    @given(cfg=packed_configs(), words=st.lists(int64s, max_size=40), data=st.data())
    def test_words_and_their_local_ids(self, cfg, words, data):
        spec = cfg.spec("v")
        w = np.array(words, dtype=np.int64)
        np.testing.assert_array_equal(
            cfg.loc_pid("v").eval(pd.DataFrame({"kv": w})), lambda_loc_pid_packed(cfg, w)
        )
        k = data.draw(domain_values(cfg.p_bits, len(words)))
        v = data.draw(domain_values(cfg.p_bits, len(words)))
        np.testing.assert_array_equal(spec.compress(k, v), lambda_compress(cfg, k, v))


class TestSparkMatchesNumpy:
    @settings(max_examples=15, deadline=None)
    @given(cfg=plain_configs, keys=st.lists(int64s, min_size=1, max_size=40))
    def test_partition_ids(self, spark, cfg, keys):
        """``pmod`` on negative keys (Spark's ``%`` truncates), any fan-out,
        and the arithmetic shift of the local radix bits."""
        pdf = pd.DataFrame({"k": np.array(keys, dtype=np.int64)})
        exprs = [cfg.net_pid(), cfg.loc_pid("v")]
        for got, e in zip(_spark_eval(spark, pdf, exprs), exprs):
            np.testing.assert_array_equal(got, e.eval(pdf), err_msg=str(e))

    @settings(max_examples=15, deadline=None)
    @given(cfg=packed_configs(), words=st.lists(int64s, min_size=1, max_size=40), data=st.data())
    def test_words_and_their_local_ids(self, spark, cfg, words, data):
        """The word, also with its top bit set, and ``key_high``'s mask over
        Spark's arithmetic ``shiftright``."""
        spec = cfg.spec("v")
        pdf = pd.DataFrame({
            "k": data.draw(domain_values(cfg.p_bits, len(words))),
            "v": data.draw(domain_values(cfg.p_bits, len(words))),
            "kv": np.array(words, dtype=np.int64),
        })
        exprs = [cfg.net_pid(), spec.word, spec.key_high, spec.value, cfg.loc_pid("v")]
        for got, e in zip(_spark_eval(spark, pdf, exprs), exprs):
            np.testing.assert_array_equal(got, e.eval(pdf), err_msg=str(e))

    @pytest.mark.parametrize("p_bits, f_bits", [(22, 2), (32, 0), (34, 4)])
    @pytest.mark.parametrize("field", ["k", "v"])
    def test_domain_edges(self, spark, p_bits, f_bits, field):
        """2**P - 1 packs on both; 2**P raises on both, naming the field."""
        cfg = JoinConfig(n_net=1 << f_bits, compress=True, p_bits=p_bits)
        word = cfg.spec("v").word
        top = (1 << p_bits) - 1
        edge = pd.DataFrame({"k": [top, 0], "v": [0, top]})
        (got,) = _spark_eval(spark, edge, [word])
        np.testing.assert_array_equal(got, word.eval(edge))
        outside = edge.assign(**{field: [top + 1, 0]})
        name = "key" if field == "k" else "value"
        with pytest.raises(ValueError, match=f"{name} outside dense {p_bits}-bit domain"):
            word.eval(outside)
        with pytest.raises(Exception, match=f"{name} outside dense {p_bits}-bit domain"):
            _spark_eval(spark, outside, [word])


class TestExpressions:
    def test_render_and_sql(self):
        e = (pmod(col("k"), 8) << 3) | (col("v") >> 2) & 7
        assert str(e) == "((pmod(k, 8) << 3) | ((v >> 2) & 7))"
        assert e.sql() == "(shiftleft(pmod(`k`, 8L), 3) | (shiftright(`v`, 2) & 7L))"
        assert e.columns() == ("k", "v")

    def test_message_is_quoted_for_sql(self):
        e = in_range(col("a b"), 0, 1, "it's \\ out")
        assert e.sql() == ("CASE WHEN `a b` < 0L OR `a b` > 1L THEN "
                           "raise_error('it\\'s \\\\ out') ELSE `a b` END")

    @pytest.mark.parametrize("build", [
        lambda: col("k") << 64,
        lambda: col("k") >> -1,
        lambda: pmod(col("k"), 0),
        lambda: col("k") & (1 << 63),
    ])
    def test_out_of_range_constants_rejected(self, build):
        with pytest.raises(ValueError):
            build()

    def test_empty_frame_has_no_values(self):
        out = pmod(col("k"), 3).eval(RowVector({"k": np.zeros(0, dtype=np.int64)}))
        assert out.dtype == np.int64 and len(out) == 0
