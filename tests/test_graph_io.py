"""Tests for graph file formats and attribute tables."""

from __future__ import annotations

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings, strategies as st

from repro.errors import GraphFormatError, GraphStructureError
from repro.graph import from_edge_list
from repro.graph import io as graph_io
from repro.graph.attributes import AttributedGraph, AttributeTable
from repro.graph.io import (
    read_edge_list,
    write_edge_list,
    read_metis,
    write_metis,
    read_dimacs,
    write_dimacs,
    save_npz,
    load_npz,
)


@pytest.fixture
def sample(weighted_graph):
    return weighted_graph


def _same_graph(a, b) -> bool:
    if a.n_vertices != b.n_vertices or a.n_edges != b.n_edges:
        return False
    ua, va = a.edge_endpoints()
    ub, vb = b.edge_endpoints()
    ea = sorted(zip(ua.tolist(), va.tolist(), a.edge_weights().tolist()))
    eb = sorted(zip(ub.tolist(), vb.tolist(), b.edge_weights().tolist()))
    return ea == eb


class TestEdgeListFormat:
    def test_roundtrip(self, sample, tmp_path):
        p = tmp_path / "g.txt"
        write_edge_list(sample, p)
        g = read_edge_list(p)
        assert _same_graph(sample, g)

    def test_roundtrip_unweighted(self, triangle_plus_tail, tmp_path):
        p = tmp_path / "g.txt"
        write_edge_list(triangle_plus_tail, p)
        g = read_edge_list(p)
        assert not g.is_weighted
        assert _same_graph(triangle_plus_tail, g)

    def test_comments_and_blank_lines(self):
        text = "# header\n\n0 1\n% other comment\n1 2\n"
        g = read_edge_list(io.StringIO(text))
        assert g.n_edges == 2

    def test_bad_line(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("0\n"))
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("a b\n"))

    def test_inconsistent_weights(self):
        with pytest.raises(GraphFormatError):
            read_edge_list(io.StringIO("0 1 2.0\n1 2\n"))

    def test_directed(self):
        g = read_edge_list(io.StringIO("0 1\n1 0\n"), directed=True)
        assert g.n_edges == 2

    def test_explicit_n_vertices(self):
        g = read_edge_list(io.StringIO("0 1\n"), n_vertices=10)
        assert g.n_vertices == 10


def _outcome(read):
    """A graph's exact arrays, or the exception it raised."""
    try:
        g = read()
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)
    w = None if g.weights is None else g.weights.view(np.int64).tolist()
    return (g.n_vertices, g.n_edges, g.offsets.tolist(), g.targets.tolist(),
            g.arc_edge_ids.tolist(), w)


def _by_line_loop(read):
    with mock.patch.object(graph_io, "_parse_chunk", lambda text: None):
        return _outcome(read)


_SEPARATORS = [" ", "  ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f"]
_IDS = st.one_of(
    st.integers(0, 40).map(str),
    st.sampled_from(["-1", "+2", "007", "-0", "1_000", "x", "1.5", "٣",
                     "123456789012345678", "12345678901234567890"]),
)
_WEIGHTS = st.one_of(
    st.floats().map(repr),
    st.floats(-1e3, 1e3).map("{:e}".format),
    st.sampled_from(["inf", "-inf", "nan", "-0.0", "1E3", "+.5", "5.", "1_0.5",
                     "abc", "1e", ".", "0x1p3", "Infinity", "1" * 40]),
)


@st.composite
def _edge_list_texts(draw):
    """Edge-list text mixing every feature either reader path meets."""
    weighted = draw(st.booleans())
    lines = []
    for kind in draw(st.lists(st.sampled_from("eeeeeeecbxs"), max_size=30)):
        if kind in "ex":  # an edge; "x" has the other weight arity
            toks = [draw(_IDS), draw(_IDS)]
            if weighted != (kind == "x"):
                toks.append(draw(_WEIGHTS))
            toks += draw(st.lists(st.sampled_from(["7", "x", "1.0"]), max_size=1))
            line = draw(st.sampled_from(_SEPARATORS)).join(toks)
        elif kind == "c":
            line = draw(st.sampled_from("#%")) + draw(st.text(
                st.characters(exclude_categories=("Cs",)), max_size=6))
        elif kind == "b":
            line = draw(st.sampled_from(["", " ", "\t\x1f"]))
        else:  # a single token
            line = draw(_IDS)
        pad = st.sampled_from(["", " ", "\t"])
        end = st.sampled_from(["\n", "\n", "\n", "\r\n", "\r"])
        lines.append(draw(pad) + line + draw(pad) + draw(end))
    return "".join(lines) + draw(st.sampled_from(["", "3 4", "# end"]))


class TestEdgeListArrayPath:
    """The chunked array reader against the line loop it falls back to."""

    @given(text=_edge_list_texts(),
           chunk=st.sampled_from([2, 5, 16, 1 << 16]),
           directed=st.booleans())
    @hyp_settings(max_examples=200, deadline=None)
    def test_differential_against_line_loop(self, tmp_path_factory, text,
                                            chunk, directed):
        path = tmp_path_factory.mktemp("el") / "g.txt"
        path.write_text(text, encoding="utf-8", newline="")
        reads = (  # text mode ends lines at CR; a StringIO keeps it
            lambda: read_edge_list(path, directed=directed),
            lambda: read_edge_list(io.StringIO(text), directed=directed),
        )
        with mock.patch.object(graph_io, "READ_CHUNK", chunk):
            for read in reads:
                assert _outcome(read) == _by_line_loop(read)

    def test_common_grammar_never_reaches_the_line_loop(self, tmp_path):
        # CRLF and lone CR (translated by text mode), every ASCII
        # separator, comments, signs, leading zeros, extra columns and
        # special weights all parse as arrays.
        text = ("# SNAP-style header\r\n% other\r\n\r\n"
                "0\x1c+1\t2.5 7\r"
                " 001 \x1f2\x0binf\n"
                "2\x0c0 -0.0\n"
                "3 -0 nan\n"
                "0 3 1e3")
        path = tmp_path / "g.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with mock.patch.object(graph_io, "_read_lines", None):
            g = read_edge_list(path)
        assert _outcome(lambda: g) == _by_line_loop(lambda: read_edge_list(path))
        assert g.n_edges == 4 and g.edge_weight(1, 2) == np.inf
        assert np.signbit(g.edge_weight(0, 2)) and np.isnan(g.edge_weight(0, 3))

    def test_unseekable_stream_falls_back_from_its_start(self):
        class Pipe(io.StringIO):
            def tell(self):
                raise io.UnsupportedOperation("not seekable")

        text = "0 1\n1 2\n" * 40 + "2 x\n"
        with mock.patch.object(graph_io, "READ_CHUNK", 16):
            with pytest.raises(GraphFormatError, match="^line 81: bad vertex id$"):
                read_edge_list(Pipe(text))
            g = read_edge_list(Pipe("0 1 1_0\n1 2 3\n"))  # "_": the loop
        assert g.edge_weight(0, 1) == 10.0 and g.n_edges == 2


class TestMetisFormat:
    def test_roundtrip(self, sample, tmp_path):
        p = tmp_path / "g.graph"
        write_metis(sample, p)
        g = read_metis(p)
        assert _same_graph(sample, g)

    def test_roundtrip_unweighted(self, two_triangles_bridge, tmp_path):
        p = tmp_path / "g.graph"
        write_metis(two_triangles_bridge, p)
        g = read_metis(p)
        assert _same_graph(two_triangles_bridge, g)

    def test_isolated_vertices_roundtrip(self):
        # Regression: blank body lines are the adjacency of isolated
        # vertices; the reader used to discard them and then reject the
        # file for having too few vertex lines.
        g = from_edge_list([(1, 2)], n_vertices=5)  # 0, 3, 4 isolated
        buf = io.StringIO()
        write_metis(g, buf)
        buf.seek(0)
        back = read_metis(buf)
        assert back.n_vertices == 5
        assert _same_graph(g, back)

    def test_header_mismatch_detected(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO("2 5\n2\n1\n"))  # claims 5 edges, has 1

    def test_vertex_count_mismatch(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO("3 1\n2\n1\n"))  # only 2 vertex lines

    def test_neighbor_out_of_range(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO("2 1\n5\n1\n"))

    PATH_PAIR = "4 2\n2\n1\n4\n3\n"  # edges 1-2 and 3-4
    PATH_PAIR_W = "4 2 1\n2 5\n1 5\n4 7\n3 7\n"

    @pytest.mark.parametrize("text, twin", [
        # vertex weights that name vertices must not be read as neighbors
        ("4 2 10\n3 2\n4 1\n1 4\n2 3\n", PATH_PAIR),
        ("4 2 010\n3 2\n4 1\n1 4\n2 3\n", PATH_PAIR),
        ("4 2 10 2\n3 1 2\n4 4 1\n1 2 4\n2 3 3\n", PATH_PAIR),
        ("4 2 100\n9 2\n9 1\n9 4\n9 3\n", PATH_PAIR),
        ("4 2 110 2\n9 3 1 2\n9 4 4 1\n9 1 2 4\n9 2 3 3\n", PATH_PAIR),
        ("4 2 11\n3 2 5\n4 1 5\n1 4 7\n2 3 7\n", PATH_PAIR_W),
        ("4 2 01\n2 5\n1 5\n4 7\n3 7\n", PATH_PAIR_W),
        ("4 2 001\n2 5\n1 5\n4 7\n3 7\n", PATH_PAIR_W),
        ("4 2 101\n9 2 5\n9 1 5\n9 4 7\n9 3 7\n", PATH_PAIR_W),
        ("4 2 111\n9 3 2 5\n9 4 1 5\n9 1 4 7\n9 2 3 7\n", PATH_PAIR_W),
    ], ids=["10", "010", "10-ncon2", "100", "110-ncon2",
            "11", "01", "001", "101", "111"])
    def test_fmt_forms_read_as_metis_defines_them(self, text, twin):
        got = _outcome(lambda: read_metis(io.StringIO(text)))
        assert got == _outcome(lambda: read_metis(io.StringIO(twin)))

    @pytest.mark.parametrize("text, match", [
        ("4 2 2\n\n\n\n\n", "^METIS header must be"),
        ("4 2 1111\n\n\n\n\n", "^METIS header must be"),
        ("4 2 10 x\n\n\n\n\n", "^METIS header must be"),
        ("4 2 10 0\n\n\n\n\n", "^METIS header must be"),
        ("x 2\n\n\n\n\n", "^METIS header must be"),
        ("2 1\n2\n1.5\n", "^vertex 2: bad neighbor or weight$"),
        ("2 1 1\n2 x\n1 1\n", "^vertex 1: bad neighbor or weight$"),
        ("2 1 10\n\n1 1\n", "^vertex 1: missing size or weights$"),
    ], ids=["fmt-2", "fmt-1111", "ncon-x", "ncon-0", "n-x", "neighbor-1.5",
            "weight-x", "no-vertex-weight"])
    def test_malformed_is_a_format_error(self, text, match):
        with pytest.raises(GraphFormatError, match=match):
            read_metis(io.StringIO(text))

    def test_directed_write_rejected(self):
        g = from_edge_list([(0, 1)], directed=True)
        with pytest.raises(GraphFormatError):
            write_metis(g, io.StringIO())

    def test_empty_file(self):
        with pytest.raises(GraphFormatError):
            read_metis(io.StringIO(""))


class TestDimacsFormat:
    def test_roundtrip_directed(self, tmp_path):
        g0 = from_edge_list([(0, 1, 3.0), (1, 2, 4.0)], directed=True)
        p = tmp_path / "g.gr"
        write_dimacs(g0, p)
        g = read_dimacs(p)
        assert _same_graph(g0, g)

    def test_roundtrip_undirected(self, sample, tmp_path):
        p = tmp_path / "g.gr"
        write_dimacs(sample, p)
        g = read_dimacs(p, directed=True)
        # undirected graphs serialize both arcs
        assert g.n_edges == 2 * sample.n_edges

    def test_missing_problem_line(self):
        with pytest.raises(GraphFormatError):
            read_dimacs(io.StringIO("a 1 2 3\n"))

    @pytest.mark.parametrize("text, line", [
        ("p sp 3 1\na 1 x 1.0\n", 2),
        ("p sp x 1\n", 1),
        ("c hi\np sp 3 1\na 1 2 w\n", 3),
    ], ids=["arc-id", "problem-n", "arc-weight"])
    def test_bad_number_is_a_format_error(self, text, line):
        with pytest.raises(GraphFormatError, match=f"^line {line}: bad number$"):
            read_dimacs(io.StringIO(text))

    def test_comments_skipped(self):
        g = read_dimacs(io.StringIO("c hi\np sp 3 1\na 1 2 5\n"))
        assert g.n_edges == 1
        assert g.edge_weight(0, 1) == 5.0


class TestNpzFormat:
    def test_roundtrip(self, sample, tmp_path):
        p = tmp_path / "g.npz"
        save_npz(sample, p)
        g = load_npz(p)
        assert _same_graph(sample, g)
        assert np.array_equal(g.arc_edge_ids, sample.arc_edge_ids)

    def test_roundtrip_directed(self, tmp_path):
        g0 = from_edge_list([(0, 1), (2, 1)], directed=True)
        p = tmp_path / "g.npz"
        save_npz(g0, p)
        g = load_npz(p)
        assert g.directed
        assert _same_graph(g0, g)


class TestRoundTripProperties:
    """Hypothesis: write→read is the identity for every text format."""

    weighted_edges = st.lists(
        st.tuples(
            st.integers(0, 11),
            st.integers(0, 11),
            st.floats(
                min_value=1e-3,
                max_value=1e6,
                allow_nan=False,
                allow_infinity=False,
            ),
        ),
        min_size=1,
        max_size=40,
    )

    @staticmethod
    def _build(edges, directed=False):
        kept = [(u, v, w) for u, v, w in edges if u != v]
        if not kept:
            kept = [(0, 1, 0.125)]
        return from_edge_list(kept, n_vertices=12, directed=directed)

    @given(weighted_edges)
    @hyp_settings(max_examples=40, deadline=None)
    def test_edge_list_roundtrip_exact(self, edges):
        g = self._build(edges)
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        assert _same_graph(g, read_edge_list(buf, n_vertices=12))

    @given(weighted_edges)
    @hyp_settings(max_examples=40, deadline=None)
    def test_metis_roundtrip_exact(self, edges):
        g = self._build(edges)
        buf = io.StringIO()
        write_metis(g, buf)
        buf.seek(0)
        assert _same_graph(g, read_metis(buf))

    @given(weighted_edges)
    @hyp_settings(max_examples=40, deadline=None)
    def test_dimacs_roundtrip_exact_directed(self, edges):
        g = self._build(edges, directed=True)
        buf = io.StringIO()
        write_dimacs(g, buf)
        buf.seek(0)
        assert _same_graph(g, read_dimacs(buf, directed=True))

    def test_weight_precision_survives_roundtrip(self):
        # Regression: ':g' formatting used to truncate weights to 6
        # significant digits, so 1/3 came back as 0.333333.
        w = 1.0 / 3.0
        g = from_edge_list([(0, 1, w), (1, 2, 1e-12 + 1.0)])
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        back = read_edge_list(buf)
        assert back.edge_weight(0, 1) == w
        assert back.edge_weight(1, 2) == 1e-12 + 1.0


class TestAttributeTable:
    def test_numeric_column(self):
        t = AttributeTable(4)
        t.add_column("score", [1.0, 2.0, 3.0, 4.0])
        assert t.get("score", 2) == 3.0
        t.set("score", 2, 9.0)
        assert t.get("score", 2) == 9.0

    def test_object_column(self):
        t = AttributeTable(3)
        t.add_column("kind", ["protein", "gene", "protein"])
        assert t.get("kind", 0) == "protein"

    def test_fill_column(self):
        t = AttributeTable(3)
        t.add_column("flag", fill=False)
        assert not t.get("flag", 1)

    def test_select(self):
        t = AttributeTable(4)
        t.add_column("x", [10, 20, 30, 40])
        sel = t.select("x", np.asarray([True, False, True, False]))
        assert list(sel) == [10, 30]

    def test_duplicate_and_missing(self):
        t = AttributeTable(2)
        t.add_column("a", [1, 2])
        with pytest.raises(GraphStructureError):
            t.add_column("a", [3, 4])
        with pytest.raises(GraphStructureError):
            t.column("b")
        t.drop_column("a")
        with pytest.raises(GraphStructureError):
            t.drop_column("a")

    def test_length_mismatch(self):
        t = AttributeTable(2)
        with pytest.raises(GraphStructureError):
            t.add_column("a", [1, 2, 3])

    def test_index_bounds(self):
        t = AttributeTable(2)
        t.add_column("a", [1, 2])
        with pytest.raises(GraphStructureError):
            t.get("a", 5)

    def test_as_dict(self):
        t = AttributeTable(1)
        t.add_column("a", [1])
        t.add_column("b", ["x"])
        assert t.as_dict(0) == {"a": 1, "b": "x"}


class TestAttributedGraph:
    def test_vertices_where(self, triangle_plus_tail):
        ag = AttributedGraph(
            triangle_plus_tail,
            vertex_attrs={"type": ["a", "b", "a", "b"]},
            edge_attrs={"kind": ["x"] * 4},
        )
        assert ag.vertices_where("type", "a").tolist() == [0, 2]
        assert len(ag.edge_attributes) == 4
