"""Unit tests for edge-list IO round-tripping."""

import re

import pytest

from repro.graphs import (
    Graph,
    assign_uniform_weights,
    gnp_random,
    read_edgelist,
    write_edgelist,
)


class TestRoundTrip:
    def test_unweighted(self, tmp_path):
        g = gnp_random(20, 0.2, seed=1)
        p = tmp_path / "g.txt"
        write_edgelist(g, p)
        h = read_edgelist(p)
        assert h.n == g.n and h.edges() == g.edges()
        assert not h.weighted

    def test_weighted(self, tmp_path):
        g = assign_uniform_weights(gnp_random(15, 0.3, seed=2), seed=3)
        p = tmp_path / "g.txt"
        write_edgelist(g, p)
        h = read_edgelist(p)
        assert h.weighted
        for (u, v, w), (u2, v2, w2) in zip(
            g.iter_weighted_edges(), h.iter_weighted_edges()
        ):
            assert (u, v) == (u2, v2)
            assert w == pytest.approx(w2)

    def test_empty_graph(self, tmp_path):
        p = tmp_path / "e.txt"
        write_edgelist(Graph(4), p)
        h = read_edgelist(p)
        assert h.n == 4 and h.m == 0


class TestParsing:
    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\nn 3\n\ne 0 1  # inline comment\n")
        h = read_edgelist(p)
        assert h.n == 3 and h.edges() == [(0, 1)]

    def test_missing_n_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("e 0 1\n")
        with pytest.raises(ValueError, match="missing 'n'"):
            read_edgelist(p)

    def test_duplicate_n_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n 3\nn 4\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_edgelist(p)

    def test_mixed_weighted_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n 3\ne 0 1 2.0\ne 1 2\n")
        with pytest.raises(ValueError, match="mixed"):
            read_edgelist(p)

    def test_unknown_record_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n 2\nq 0 1\n")
        with pytest.raises(ValueError, match="unknown record"):
            read_edgelist(p)

    def test_malformed_edge_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("n 2\ne 0\n")
        with pytest.raises(ValueError, match="malformed"):
            read_edgelist(p)

    @pytest.mark.parametrize(
        "text,lineno",
        [
            ("n\n", 1),  # bare 'n' line
            ("n 3 7\n", 1),  # trailing token
            ("n abc\n", 1),
            ("# c\nn 3\ne 0 x\n", 3),
            ("n 3\ne 0 1 heavy\n", 2),
        ],
    )
    def test_malformed_record_names_file_and_line(self, tmp_path, text, lineno):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{lineno}: "):
            read_edgelist(p)

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_nonfinite_weight_rejected(self, tmp_path, weight):
        p = tmp_path / "bad.txt"
        p.write_text(f"n 3\ne 0 1 {weight}\ne 1 2 2.0\n")
        with pytest.raises(ValueError, match="non-finite"):
            read_edgelist(p)

    @pytest.mark.parametrize("big", ["99999999999999999999",
                                     "-9223372036854775809"])
    def test_endpoint_outside_int64_names_file(self, tmp_path, big):
        p = tmp_path / "bad.txt"
        p.write_text(f"n 3\ne 0 1\ne {big} 2\n")
        msg = f"edge endpoint {big} out of range for n=3"
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {msg}"):
            read_edgelist(p)
