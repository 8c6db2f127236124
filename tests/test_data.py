"""CSV ingestion, level indexing, and response views."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import jointfit as jf
from jointfit.data import response_view

from conftest import make_dataset


def write(tmp_path, text, name="d.csv"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadTable:
    def test_na_token_sets_missing(self, tmp_path):
        d = jf.load_table(write(tmp_path, "id,log.grad\n1,2.5\n1,NA\n"))
        col = d.column("log.grad")
        assert col[0] == 2.5
        assert np.isnan(col[1])

    def test_header_only_gives_zero_rows(self, tmp_path):
        d = jf.load_table(write(tmp_path, "id,sex,age\n"))
        assert d.n_rows == 0
        assert set(d.columns) == {"id", "sex", "age"}

    def test_plain_numeric_row(self, tmp_path):
        d = jf.load_table(write(tmp_path, "id,sex,age\n1,0,75.06027\n"))
        assert d.column("age")[0] == 75.06027
        assert not np.isnan(d.column("sex")[0])

    def test_non_numeric_cell_rejected(self, tmp_path):
        with pytest.raises(jf.DataError, match="non-numeric"):
            jf.load_table(write(tmp_path, "a,b\n1,foo\n"))

    def test_duplicate_header_rejected(self, tmp_path):
        with pytest.raises(jf.DataError, match="duplicate"):
            jf.load_table(write(tmp_path, "a,a\n1,2\n"))

    def test_ragged_row_rejected(self, tmp_path):
        with pytest.raises(jf.DataError, match="expected 2 cells"):
            jf.load_table(write(tmp_path, "a,b\n1,2,3\n"))

    def test_custom_na_token(self, tmp_path):
        d = jf.load_table(write(tmp_path, "a\n.\n1\n"), na_token=".")
        assert np.isnan(d.column("a")[0])
        assert d.column("a")[1] == 1.0


class TestRoundTrip:
    @given(
        values=st.lists(
            st.one_of(
                st.none(),
                st.floats(allow_nan=False, allow_infinity=False, width=64),
            ),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_save_load_bit_exact(self, values, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        col = np.asarray([np.nan if v is None else v for v in values])
        d = jf.Dataset({"v": col}, len(col))
        path = str(tmp / "x.csv")
        jf.save_table(d, path)
        d2 = jf.load_table(path)
        got = d2.column("v")
        mask = np.isnan(col)
        assert np.array_equal(np.isnan(got), mask)
        assert np.array_equal(got[~mask], col[~mask])


class TestBuildLevels:
    def test_single_level_groups_rows(self):
        d = make_dataset({"id": [3, 3, 8, 8, 8]}, levels=("id",))
        li = d.level_index["id"]
        assert li.n_clusters == 2
        assert np.array_equal(li.cluster_rows[1], [2, 3, 4])
        assert np.array_equal(li.row_cluster, [0, 0, 1, 1, 1])

    def test_cluster_rows_match_per_cluster_scan(self):
        # shuffled labels, clusters of 1 to 9 rows, codes with gaps
        rng = np.random.default_rng(4)
        labels = rng.permutation(np.repeat(rng.choice(5000, 400, replace=False),
                                           rng.integers(1, 10, 400)))
        li = make_dataset({"id": labels}, levels=("id",)).level_index["id"]
        assert li.n_clusters == 400
        for k, rows in enumerate(li.cluster_rows):
            want = np.flatnonzero(li.row_cluster == k)
            assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()

    def test_no_levels_means_no_index(self):
        d = make_dataset({"x": [1.0, 2.0]})
        assert d.level_index == {}

    def test_non_nested_child_rejected(self):
        # child cluster 1 spans parent clusters 10 and 20
        d = make_dataset({"p": [10, 10, 20, 20], "c": [1, 1, 1, 2]})
        with pytest.raises(jf.DataError, match="spans"):
            jf.build_levels(d, ("p", "c"))

    def test_nested_two_levels_ok(self):
        d = make_dataset({"p": [10, 10, 20, 20], "c": [1, 1, 2, 3]})
        d = jf.build_levels(d, ("p", "c"))
        assert d.level_index["p"].n_clusters == 2
        assert d.level_index["c"].n_clusters == 3

    def test_missing_level_value_rejected(self):
        d = make_dataset({"id": [1, np.nan]})
        with pytest.raises(jf.DataError, match="missing"):
            jf.build_levels(d, ("id",))

    def test_non_integer_level_rejected(self):
        d = make_dataset({"id": [1.5, 2.0]})
        with pytest.raises(jf.DataError, match="integer"):
            jf.build_levels(d, ("id",))

    def test_composed_map_consistent(self):
        d = make_dataset(
            {"p": [1, 1, 1, 2, 2], "c": [10, 10, 11, 12, 12]},
            levels=("p", "c"),
        )
        # row -> child -> (parent of that child) equals row -> parent
        pc = d.level_index["p"].row_cluster
        cc = d.level_index["c"].row_cluster
        for k in range(d.level_index["c"].n_clusters):
            rows = d.level_index["c"].cluster_rows[k]
            assert len(np.unique(pc[rows])) == 1


class TestResponseView:
    def test_survival_pair_single_observed_row(self):
        d = make_dataset({
            "stime": [4.956164, np.nan, np.nan],
            "died": [0.0, np.nan, np.nan],
        })
        rv = response_view(d, ("stime", "died"))
        assert rv.kind == "time-event"
        assert np.array_equal(rv.observed_rows, [0])
        assert rv.values[0, 0] == 4.956164
        assert rv.values[0, 1] == 0.0

    def test_scalar_skips_missing(self):
        d = make_dataset({"y": [1.0, np.nan, 3.0]})
        rv = response_view(d, "y")
        assert np.array_equal(rv.observed_rows, [0, 2])
        assert np.array_equal(rv.values, [1.0, 3.0])

    def test_status_outside_01_rejected(self):
        d = make_dataset({"t": [1.0], "s": [2.0]})
        with pytest.raises(jf.DataError, match="outside"):
            response_view(d, ("t", "s"))

    def test_nonpositive_time_rejected(self):
        d = make_dataset({"t": [0.0], "s": [1.0]})
        with pytest.raises(jf.DataError, match="non-positive"):
            response_view(d, ("t", "s"))

    def test_observed_count_decreases_with_missingness(self):
        y = np.arange(10, dtype=float)
        prev = 10
        for k in range(10):
            y2 = y.copy()
            y2[:k] = np.nan
            rv = response_view(make_dataset({"y": y2}), "y")
            assert len(rv.observed_rows) <= prev
            prev = len(rv.observed_rows)

    def test_overrides_do_not_touch_base(self):
        d = make_dataset({"x": [1.0, 2.0]})
        d2 = d.with_overrides({"x": 9.0})
        assert np.array_equal(d2.column("x"), [9.0, 9.0])
        assert np.array_equal(d.column("x"), [1.0, 2.0])
