"""Unit tests for edge-list IO: round trips, parsing and a fuzz net."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("text", [
        "n 9223372036854775808\n",
        "n 100000000000000000000\ne 0 1\n",
    ])
    def test_n_beyond_int64_names_file(self, tmp_path, text):
        # The second file raised an OverflowError from NumPy.
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(
            ValueError,
            match=f"^{re.escape(str(p))}: vertex count .* int64 index range",
        ):
            read_edgelist(p)

    def test_unallocatable_graph_names_file(self, tmp_path, monkeypatch):
        # A vertex count too large for memory raised NumPy's MemoryError;
        # Graph is stubbed so that the test allocates nothing.
        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 TiB")

        monkeypatch.setattr("repro.graphs.io.Graph", no_memory)
        p = tmp_path / "big.txt"
        p.write_text("n 1099511627776\n")
        msg = "no memory for a graph with n=1099511627776: Unable to allocate"
        with pytest.raises(ValueError, match=f"^{re.escape(str(p))}: {msg}"):
            read_edgelist(p)

    @pytest.mark.parametrize(
        "data,lineno",
        [
            (b"n 3\n# ok\ne 0 1\xff\ne 1 2\n", 3),
            (b"\xfen 3\n", 1),
            (b"n 3\r\ne 0 1\r\n# caf\xe9\r\n", 3),  # Latin-1, not UTF-8
            (b"n 3\re 0 1\r\xc3", 3),  # truncated at end of file
            (b"n 3\n\n\ne 0 1 \xed\xa0\x80\n", 4),  # encoded surrogate
        ],
    )
    def test_undecodable_bytes_name_file_and_line(
        self, tmp_path, data, lineno
    ):
        # These used to raise a bare UnicodeDecodeError naming neither.
        p = tmp_path / "bad.txt"
        p.write_bytes(data)
        with pytest.raises(
            ValueError, match=f"^{re.escape(str(p))}:{lineno}: byte 0x"
        ):
            read_edgelist(p)


def reference_parse(data: bytes):
    """``(n, edges, weights)`` of a file the format defines, else None.

    Written from the module docstring alone: UTF-8 lines, ``#``
    comments, one ``n`` record, ``e u v [w]`` records that all carry a
    weight or none, and a simple graph on ``0..n-1`` with weights in
    (0, inf).  A vertex count beyond int64 (a junk token in the ``n``
    record) is no graph: no array of that many vertices exists.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return None
    n, edges, weights, arities = None, [], [], set()
    for line in text.splitlines():
        fields = line.partition("#")[0].split()
        if not fields:
            continue
        try:
            if fields[0] == "n" and len(fields) == 2 and n is None:
                n = int(fields[1])
            elif fields[0] == "e" and len(fields) in (3, 4):
                edges.append((int(fields[1]), int(fields[2])))
                weights.extend(float(w) for w in fields[3:])
                arities.add(len(fields))
            else:
                return None
        except ValueError:
            return None
    if n is None or not 0 <= n < 2**63 or len(arities) > 1:
        return None
    pairs = [(min(u, v), max(u, v)) for u, v in edges]
    if len(set(pairs)) < len(pairs):
        return None
    if any(not 0 <= u < v < n for u, v in pairs):
        return None
    if not all(0 < w < math.inf for w in weights):
        return None
    return n, pairs, weights or None


#: Junk for the fuzz net: tokens Python's int/float reject or accept
#: oddly, and byte sequences that are not UTF-8.
_JUNK = ["-1", "-0", "+2", "01", "1_0", "nan", "inf", "-inf", "-0.0",
         "0.0", "1.5", "1e3", "1e400", "0x10", "99999999999999999999",
         "9223372036854775808", "-9223372036854775809", "abc", "q",
         "\u0663", "caf\u00e9"]
_RAW = [b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80", b"\xf8\x88"]
_ENDINGS = [b"\n", b"\r\n", b"\r", b"\x0b", b"\xc2\x85"]


@st.composite
def line_soups(draw) -> bytes:
    """Random edge-list files: an ``n`` record and edge records with or
    without weights, a few of them broken (a junk or bad number, an
    extra or missing field, an unknown record, a second or no ``n``,
    raw non-UTF-8 bytes), between comments, blank lines and mixed line
    endings.  ``n`` stays at 200 or below."""
    n = draw(st.integers(0, 200))
    weighted = draw(st.booleans())
    vertex = st.integers(0, max(n - 1, 0)).map(str)
    weight = st.sampled_from(["1", "2.5", "0.25", "1e3", "7"])
    records = []
    for _ in range(draw(st.integers(0, 10))):
        rec = ["e", draw(vertex), draw(vertex)]
        records.append(rec + [draw(weight)] if weighted else rec)
    records.insert(draw(st.integers(0, len(records))), ["n", str(n)])
    raw_at = None
    for _ in range(draw(st.integers(0, 2))):
        rec = records[draw(st.integers(0, len(records) - 1))]
        kind = draw(st.sampled_from(
            ["token", "extra", "drop", "record", "n", "raw"]
        ))
        if kind == "token":
            at = draw(st.integers(0, len(rec) - 1))
            rec[at] = draw(st.sampled_from(_JUNK))
        elif kind == "extra":
            rec.append(draw(st.sampled_from(_JUNK + ["3"])))
        elif kind == "drop" and len(rec) > 1:
            rec.pop()
        elif kind == "record":
            records.append([draw(st.sampled_from(["q", "E", "ee", "n", "e"]))])
        elif kind == "n":
            records.append(["n", draw(st.sampled_from([str(n), "x"]))])
        elif kind == "raw":
            raw_at = draw(st.integers(0, len(records) - 1))
    lines = []
    for i, rec in enumerate(records):
        while draw(st.integers(0, 3)) == 3:
            lines.append(draw(st.sampled_from([b"", b"# note", b"   # n 5"])))
        line = " ".join(rec).encode()
        if draw(st.integers(0, 4)) == 4:
            line += b"  # e 0 1"
        if i == raw_at:
            cut = draw(st.integers(0, len(line)))
            line = line[:cut] + draw(st.sampled_from(_RAW)) + line[cut:]
        lines.append(line)
    ends = [draw(st.sampled_from(_ENDINGS[:3] if i % 4 else _ENDINGS))
            for i in range(len(lines))]
    return b"".join(line + end for line, end in zip(lines, ends))


class TestFuzz:
    @settings(max_examples=300, deadline=None)
    @given(data=line_soups())
    def test_loads_the_reference_parse_or_names_the_file(
        self, tmp_path_factory, data
    ):
        p = tmp_path_factory.getbasetemp() / "soup.txt"
        p.write_bytes(data)
        want = reference_parse(data)
        try:
            g = read_edgelist(p)
        except ValueError as e:
            assert str(e).startswith(f"{p}:"), str(e)
            assert want is None, (data, str(e))
            return
        assert want is not None, data
        n, edges, weights = want
        assert (g.n, g.edges()) == (n, edges)
        if weights is None:
            assert not g.weighted
        else:
            assert g.weighted and g.weights_array().tolist() == weights
