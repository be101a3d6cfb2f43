"""Unit tests for the simulated MPI/RDMA substrate."""
import numpy as np
import pytest

from repro.mpi.simcluster import LocalComm, SimCluster


class TestCollectives:
    def test_allreduce_sum(self):
        c = SimCluster(3)
        out = c.run(
            lambda comm, x: comm.allreduce_sum(np.array([x, 2 * x])),
            [1, 2, 3],
        )
        assert all(list(o) == [6, 12] for o in out)

    def test_exscan_sum(self):
        c = SimCluster(4)
        out = c.run(lambda comm, x: comm.exscan_sum(np.array([x])), [5, 6, 7, 8])
        assert [int(o[0]) for o in out] == [0, 5, 11, 18]

    def test_repeated_collectives_do_not_interfere(self):
        c = SimCluster(3)

        def prog(comm, x):
            a = comm.allreduce_sum(np.array([x]))
            b = comm.allreduce_sum(np.array([x * 10]))
            return int(a[0]), int(b[0])

        out = c.run(prog, [1, 2, 3])
        assert all(o == (6, 60) for o in out)

    def test_rank_error_propagates(self):
        c = SimCluster(2)

        def prog(comm, x):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()  # would deadlock without barrier abort
            return x

        with pytest.raises(ValueError, match="boom"):
            c.run(prog, [0, 1])

    def test_input_arity_checked(self):
        with pytest.raises(ValueError, match="2 ranks"):
            SimCluster(2).run(lambda comm, x: x, [1])


class TestWindows:
    def test_put_visible_after_fence(self):
        c = SimCluster(2)

        def prog(comm, x):
            win = comm.win_create(2, {"v": np.int64})
            # slot layout: slot r belongs to writer rank r (disjoint offsets,
            # exactly how histogram-derived offsets avoid synchronization)
            other = 1 - comm.rank
            comm.put(win, other, comm.rank, {"v": np.array([x])}, np.array([0]))
            comm.put(win, comm.rank, comm.rank, {"v": np.array([x * 100])}, np.array([0]))
            comm.fence(win)
            return list(win.local(comm.rank)["v"])

        out = c.run(prog, [7, 8])
        assert out[0] == [700, 8]
        assert out[1] == [7, 800]

    def test_put_overflow_rejected(self):
        c = SimCluster(1)

        def prog(comm, _):
            win = comm.win_create(1, {"v": np.int64})
            comm.put(win, 0, 1, {"v": np.array([1])}, np.array([0]))

        with pytest.raises(RuntimeError, match="overflows"):
            c.run(prog, [None])

    def test_heterogeneous_window_sizes(self):
        c = SimCluster(2)

        def prog(comm, _):
            win = comm.win_create(comm.rank + 1, {"v": np.int64})
            comm.fence(win)
            return win.n_slots

        out = c.run(prog, [None, None])
        assert out[0] == [1, 2]

    def test_every_rank_gets_the_same_window(self):
        """``win_create`` hands rank 0's window to every peer, and
        back-to-back registrations never mix up their windows."""
        c = SimCluster(8)
        out = c.run(
            lambda comm, _: [comm.win_create(comm.rank, {"v": object}) for _ in range(20)],
            [None] * 8,
        )
        for i in range(20):
            assert all(o[i] is out[0][i] for o in out)
            assert out[0][i].n_slots == list(range(8))
        assert len({id(w) for w in out[0]}) == 20

    def test_stats_accounting(self):
        c = SimCluster(2)

        def prog(comm, _):
            win = comm.win_create(4, {"v": np.int64, "s": object})
            comm.put(win, comm.rank, 0, {"v": np.array([1, 2]), "s": np.array(["ab", "c"], object)},
                     np.array([0, 1]))
            comm.fence(win)
            return None

        c.run(prog, [None, None])
        # 8 bytes per int64 cell, the string length per object cell
        assert c.total_bytes_put() == 2 * (2 * 8 + 3)
        assert all(s.puts == 1 and s.windows_created == 1 for s in c.stats)

    def test_gathering_put_matches_copying_the_gathered_rows(self):
        """``put`` gathers rows straight into the window: the window and
        the byte count are those of copying ``column[rows]`` in, for every
        column kind the exchange carries."""
        n = 40
        g = np.random.default_rng(0)
        columns = {
            "i": g.integers(-(1 << 62), 1 << 62, n),
            "f": g.standard_normal(n),
            "d": np.datetime64("1995-01-01", "ns") + g.integers(0, 10**15, n).astype("m8[ns]"),
            "s": np.array(["x" * int(k) for k in g.integers(0, 5, n)], dtype=object),
        }
        pieces = [g.permutation(n)[:m] for m in (7, 0, 13)]
        comm = LocalComm()
        win = comm.win_create(20, {c: a.dtype for c, a in columns.items()})
        offset = 0
        for rows in pieces:
            if len(rows):
                comm.put(win, 0, offset, columns, rows)
            offset += len(rows)
        comm.fence(win)
        for c, a in columns.items():
            np.testing.assert_array_equal(win.local(0)[c], np.concatenate([a[r] for r in pieces]))
        strings = sum(len(v) for r in pieces for v in columns["s"][r])
        assert comm.stats.bytes_put == 3 * 8 * 20 + strings
        assert comm.stats.puts == 2


class TestLocalComm:
    def test_single_rank_semantics(self):
        comm = LocalComm()
        assert comm.size == 1 and comm.rank == 0
        assert list(comm.allreduce_sum(np.array([3]))) == [3]
        assert list(comm.exscan_sum(np.array([3]))) == [0]
        win = comm.win_create(2, {"v": np.int64})
        comm.put(win, 0, 0, {"v": np.array([1, 2])}, np.array([0, 1]))
        comm.fence(win)
        assert list(win.local(0)["v"]) == [1, 2]
        assert list(win.local(0, 1, 2)["v"]) == [2]
