import json

import numpy as np
import pytest

import centrolab as cl
from centrolab import io

from _helpers import loads_strict


class TestMatrixCsv:
    def test_round_trip_is_exact(self, tmp_path):
        m = cl.sample_centro(6, "gaussian", 55)
        path = io.write_matrix_csv(tmp_path / "m.csv", m)
        back = io.read_matrix_csv(path)
        assert np.array_equal(back, m.entries)

    def test_header_line(self, tmp_path):
        path = io.write_matrix_csv(tmp_path / "m.csv", np.eye(3))
        assert path.read_text().splitlines()[0] == "n=3"

    def test_seventeen_significant_digits(self, tmp_path):
        value = 1.0 / 3.0
        path = io.write_matrix_csv(tmp_path / "m.csv", np.array([[value]]))
        text = path.read_text().splitlines()[1]
        assert float(text) == value
        assert len(text.replace("0.", "")) == 17

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("rows=3\n1,2,3\n")
        with pytest.raises(ValueError):
            io.read_matrix_csv(p)

    @pytest.mark.parametrize("text", ["", "  \n\n \t\n"])
    def test_empty_file_rejected(self, tmp_path, text):
        p = tmp_path / "empty.csv"
        p.write_text(text)
        with pytest.raises(ValueError, match="empty"):
            io.read_matrix_csv(p)

    def test_wrong_row_count_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("n=2\n1,0\n")
        with pytest.raises(ValueError):
            io.read_matrix_csv(p)


class TestSpectrumCsv:
    def test_header_and_row_count(self, tmp_path):
        s = cl.eigenvalues(cl.sample_centro(7, "gaussian", 2).entries)
        path = io.write_spectrum_csv(tmp_path / "s.csv", s)
        lines = path.read_text().splitlines()
        assert lines[0] == "re,im"
        assert len(lines) == 8

    def test_values_round_trip(self, tmp_path):
        s = cl.eigenvalues(cl.sample_centro(5, "gaussian", 3).entries)
        path = io.write_spectrum_csv(tmp_path / "s.csv", s)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        back = np.array([complex(float(r), float(i)) for r, i in rows])
        assert np.array_equal(back, s.values)


class TestChainTableCsv:
    def test_header_bit_exact(self, tmp_path):
        rows = cl.convergence_table([2], [], [2])
        path = io.write_chain_table_csv(tmp_path / "t.csv", rows)
        assert path.read_text().splitlines()[0] == "n,k,l,value,terms"

    def test_single_chain_leaves_l_empty(self, tmp_path):
        rows = [cl.oracle_single_chain(2, 2), cl.oracle_double_chain(2, 1, 1)]
        path = io.write_chain_table_csv(tmp_path / "t.csv", rows)
        lines = path.read_text().splitlines()
        assert lines[1] == "2,2,,2,4"
        assert lines[2] == "2,1,1,2,4"


class TestHistogramCsv:
    def test_counts_cover_all_samples(self, tmp_path):
        x = np.random.default_rng(0).standard_normal(500)
        path = io.write_histogram_csv(tmp_path / "h.csv", x)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert sum(counts) == 500
        lefts = [float(line.split(",")[0]) for line in lines[1:]]
        assert lefts == np.histogram_bin_edges(x, bins="fd")[:-1].tolist()

    @pytest.mark.parametrize("size", [2, 50, 1000])
    def test_heavy_tailed_sample_gets_at_most_one_bin_per_sample(self, tmp_path, size):
        # x**20: the IQR is tiny next to the range, so FD alone asks for
        # far more bins than samples
        x = np.random.default_rng(size).standard_normal(size) ** 20
        path = io.write_histogram_csv(tmp_path / "h.csv", x)
        counts = [int(line.split(",")[2]) for line in path.read_text().splitlines()[1:]]
        assert 1 <= len(counts) <= size
        assert sum(counts) == size


class TestJson:
    def test_deterministic_bytes(self, tmp_path):
        payload = {"b": 2, "a": [1.5, 2.5], "c": {"y": 1, "x": 0}}
        p1 = io.write_json(tmp_path / "a.json", payload)
        p2 = io.write_json(tmp_path / "b.json", payload)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == payload

    def test_non_finite_floats_are_null(self, tmp_path):
        payload = {"a": float("nan"), "b": [1.5, float("inf")], "c": {"d": (-np.inf, np.nan)}}
        text = io.write_json(tmp_path / "a.json", payload).read_text()
        assert loads_strict(text) == {
            "a": None,
            "b": [1.5, None],
            "c": {"d": [None, None]},
        }

    def test_non_finite_value_the_conversion_misses_raises(self, tmp_path):
        # dict keys are left as they are
        with pytest.raises(ValueError):
            io.write_json(tmp_path / "a.json", {float("nan"): 1})
