"""Graph construction, Laplacian variants, and spectral plumbing."""

import csv
import hashlib
import io
import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from specreason import graph as gr
from specreason.taskgen import random_gnm, random_gnp


def p2():
    return gr.Graph(node_count=2, edges=((0, 1, 1.0),))


def scipy_laplacian(g, variant):
    """The Laplacian as scipy.sparse assembles it from the edge arrays: the reference.

    A normalized off-diagonal entry is one value per edge i < j, (d_i^-1/2 w) d_j^-1/2,
    placed at (i, j) and (j, i); scipy's sum drops the entries that come out zero.
    """
    ends = (np.concatenate([g.rows, g.cols]), np.concatenate([g.cols, g.rows]))
    adj = sp.csr_array((np.tile(g.weights, 2), ends), shape=(g.node_count,) * 2)
    degree = (np.abs(adj) if variant == "signed" else adj).sum(axis=1)
    if variant == "normalized":
        positive = degree > 0
        inv_sqrt = np.divide(1.0, np.sqrt(degree), out=np.zeros(g.node_count), where=positive)
        off = inv_sqrt[g.rows] * g.weights * inv_sqrt[g.cols]
        scaled = sp.csr_array((np.tile(off, 2), ends), shape=adj.shape)
        eye = sp.diags_array(np.where(positive, 1.0, 0.0), format="csr")
        return sp.csr_array(eye - scaled), adj
    return sp.csr_array(sp.diags_array(degree, format="csr") - adj), adj


def reference_canonical_columns(eigenvalues, eigenvectors):
    """The sign and tie-break convention as a per-column loop over Python tuples: the reference.

    Ties are read in the eigenvalues' own frame, times 2^-e with 2^(e - 1) <= max |value| < 2^e.
    """
    n = eigenvalues.size
    frame = np.ldexp(eigenvalues, -np.frexp(np.max(np.abs(eigenvalues)))[1])
    for j in range(n):
        col = eigenvectors[:, j]
        nz = np.nonzero(np.abs(col) > gr._SIGN_TOL)[0]
        if nz.size and col[nz[0]] < 0:
            eigenvectors[:, j] = -col
    start = 0
    while start < n:
        end = start + 1
        while (end < n and frame[end] - frame[start]
               <= gr._TIE_TOL * max(1.0, abs(frame[start]))):
            end += 1
        if end - start > 1:
            block = [(tuple(-eigenvectors[:, j]), j) for j in range(start, end)]
            order = [j for _, j in sorted(block)]
            eigenvalues[start:end] = eigenvalues[order]
            eigenvectors[:, start:end] = eigenvectors[:, order]
        start = end
    return eigenvalues, eigenvectors


def write_edges(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestGraph:
    def test_edges_canonicalized(self):
        g = gr.Graph(node_count=3, edges=((2, 0, 1.0), (1, 0, 2.0)))
        assert g.edges == ((0, 1, 2.0), (0, 2, 1.0))
        assert g.edge_count == 2

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            gr.Graph(node_count=2, edges=((1, 1, 1.0),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            gr.Graph(node_count=2, edges=((0, 1, 1.0), (1, 0, 2.0)))

    def test_rejects_negative_weight_unless_signed(self):
        with pytest.raises(ValueError, match="negative"):
            gr.Graph(node_count=2, edges=((0, 1, -1.0),))
        g = gr.Graph(node_count=2, edges=((0, 1, -1.0),), kind="signed")
        assert g.edges[0][2] == -1.0

    def test_adjacency_symmetric(self):
        g = random_gnp(20, 0.3, seed=1)
        a = scipy_view(g.adjacency()).toarray()
        assert np.array_equal(a, a.T)

    def test_first_bad_edge_in_input_order(self):
        cases = [
            (((0, 1, 1.0), (1, 0, 2.0), (0, 1, 3.0)), 1, r"duplicate edge \(0, 1\)"),
            (((0, 1, 1.0), (1, 2, 0.0), (2, 2, 1.0)), 1, "zero weight"),
            (((0, 1, float("nan")), (1, 1, 1.0)), 0, "non-finite"),
            (((2, 1, 1.0), (0, 9, -1.0)), 1, r"edge \(0, 9\) out of range"),
            (((0, 2, 1.0), (1.0, 2, 1.0), (1, 1, 1.0)), 1,
             r"non-integer endpoint in edge \(1.0, 2\)"),
        ]
        for edges, index, fragment in cases:
            with pytest.raises(gr.InvalidEdgeError, match=fragment) as err:
                gr.Graph(node_count=3, edges=edges)
            assert err.value.index == index

    def test_rejects_non_integer_endpoints(self):
        # a float, even a whole one, or a bool names no node: none is truncated to one
        for edge, shown in (((0, 1.5, 1.0), r"\(0, 1.5\)"), ((True, 2, 1.0), r"\(True, 2\)"),
                            ((0, 1.0, 1.0), r"\(0, 1.0\)"),
                            ((np.float64(2), 1, 1.0), r"\(2.0, 1\)")):
            with pytest.raises(gr.InvalidEdgeError, match="non-integer endpoint in edge " + shown):
                gr.Graph(3, [edge])
        with pytest.raises(gr.InvalidEdgeError, match="non-integer endpoint"):
            gr.Graph(3, columns=(np.array([0.0]), np.array([1]), np.array([1.0])))
        g = gr.Graph(3, [(np.int32(0), np.uint8(1), 1.0), (1, np.int64(2), 2.0)])
        assert g.edges == ((0, 1, 1.0), (1, 2, 2.0))

    @pytest.mark.parametrize("count", [True, False, 2.0])
    def test_rejects_a_node_count_that_is_not_an_int(self, count):
        # a bool is an int to isinstance, but True is no count of one node
        with pytest.raises(ValueError, match="node_count must be a positive integer"):
            gr.Graph(count)

    def test_edge_arrays_sorted_and_read_only(self):
        g = gr.Graph(node_count=4, edges=((2, 0, 1.0), (3, 1, 2.0), (0, 1, 0.5)))
        assert g.rows.tolist() == [0, 0, 1] and g.cols.tolist() == [1, 2, 3]
        assert g.weights.tolist() == [0.5, 1.0, 2.0]
        with pytest.raises(ValueError):
            g.rows[0] = 3
        same = gr.Graph(4, columns=([0, 1, 2], [1, 3, 0], [0.5, 2.0, 1.0]))
        assert same.edges == g.edges


class TestLoadGraph:
    def test_round_trip(self, tmp_path):
        path = write_edges(tmp_path, "3 2\n0 1 1.0\n1 2 0.5\n")
        g = gr.load_graph(path.read_bytes())
        assert g.node_count == 3
        assert g.edges == ((0, 1, 1.0), (1, 2, 0.5))

    def test_only_bytes_are_read(self, tmp_path):
        # the library parses bytes; only cli reads files
        path = write_edges(tmp_path, "3 2\n0 1 1.0\n1 2 0.5\n")
        for source in (path, str(path), ["3 2", "0 1 1.0", "1 2 0.5"], 0):  # paths, lines, an fd
            with pytest.raises(TypeError):
                gr.load_graph(source)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = write_edges(tmp_path, "# a graph\n\n2 1\n\n# edge\n0 1 1.0\n")
        assert gr.load_graph(path.read_bytes()).edge_count == 1

    def test_error_carries_line_number(self, tmp_path):
        cases = [
            ("2 1\n0 0 1.0\n", 2, "self-loop"),
            ("3 2\n0 1 1.0\n0 1 2.0\n", 3, "duplicate"),
            ("2 1\n0 5 1.0\n", 2, "out of range"),
            ("2 1\n0 1 -1.0\n", 2, "negative"),
            ("2 1\n0 1 nope\n", 2, "could not parse"),
            ("2 1\n", 1, "expected 1 edge"),
            ("2 2\n0 1 1\n\n# c", 4, "expected 2 edge"),
            ("", 1, "missing header"),
            ("# only\n\n", 2, "missing header"),
            ("not a header\n", 1, "header"),
            ("# c\n\n2 1\n0 1 0\n", 4, "zero weight"),
            ("2 1\n0 1 nan\n", 2, "non-finite"),
            ("3 2\n0 1 1.0\n1 0 2.0\n", 3, "duplicate"),
            ("# a\n\n3 3\n# b\n0 1 1.0\n\n  # c\n2 1 1.0\n\n1 1 1.0\n", 10, "self-loop"),
            ("3 2\n0 1 1.0 # note\n1 2 1.0\n", 2, "could not parse"),
            ("3 2\n0 2 0\n1 2 x\n", 2, "zero weight"),
            ("3 2\n0 2 1\n1 2 x\n", 3, "could not parse"),
        ]
        for text, line_no, fragment in cases:
            path = write_edges(tmp_path, text)
            with pytest.raises(gr.EdgeListError, match=fragment) as err:
                gr.load_graph(path.read_bytes())
            assert err.value.line_no == line_no

    def test_trailing_data_rejected(self, tmp_path):
        path = write_edges(tmp_path, "2 1\n0 1 1.0\n1 0 2.0\n")
        with pytest.raises(gr.EdgeListError, match="trailing"):
            gr.load_graph(path.read_bytes())

    def test_signed_kind_allows_negative(self, tmp_path):
        path = write_edges(tmp_path, "2 1\n0 1 -2.0\n")
        g = gr.load_graph(path.read_bytes(), kind="signed")
        assert g.edges == ((0, 1, -2.0),)

    LITERALS = ["1", "+1", "-1", "01", "1_0", "0x10", "1.5", "1.", ".5", "1e3", "1E-3", "nan",
                "-inf", "Infinity", "1e400", "1e-400", "1e", "--1", "1d0", "1,5", "\u0661",
                "\u01fe", "9223372036854775807", "9223372036854775808",
                "0.1000000000000000055511151231257827021181583404541015625",
                "2.4703282292062328e-324"]

    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_fields_convert_as_int_and_float_do(self, field):
        convert = float if field == 2 else int
        for literal in self.LITERALS:
            fields = ["0", "2", "1.5"]
            fields[field] = literal
            line = " ".join(fields)
            try:
                expected = convert(literal)
            except ValueError:
                expected = None
            # loadtxt, as load_graph runs it on ASCII text, may refuse a literal that
            # int()/float() take, but never takes one they refuse, nor reads it otherwise
            if literal.isascii():
                try:
                    row = np.loadtxt(io.StringIO(line), ndmin=1,
                                     dtype=[("i", np.int64), ("j", np.int64), ("w", float)])[0]
                except ValueError:
                    row = None
                if row is not None:
                    assert expected is not None, literal
                    np.testing.assert_array_equal(row[field], expected)
            try:
                reference = gr.Graph(5000, [(int(a), int(b), float(c)) for a, b, c in [line.split()]])
            except (ValueError, OverflowError):
                reference = None
            try:
                loaded = gr.load_graph(f"5000 1\n{line}\n".encode())
            except gr.EdgeListError:
                loaded = None
            assert (loaded is None) == (reference is None), literal
            assert loaded is None or loaded.edges == reference.edges, literal

    def test_matches_graph_from_triples(self, tmp_path):
        rng = np.random.default_rng(2025)
        for trial in range(20):
            n = int(rng.integers(2, 60))
            kind = ("unsigned", "signed")[trial % 2]
            base = random_gnp(n, float(rng.uniform(0.05, 0.5)), seed=rng)
            triples = []
            for i, j, _ in base.edges:
                w = float(rng.choice([1, 3])) if rng.random() < 0.3 else float(rng.uniform(0.1, 2))
                if kind == "signed" and rng.random() < 0.5:
                    w = -w
                triples.append((j, i, w) if rng.random() < 0.5 else (i, j, w))
            triples = [triples[k] for k in rng.permutation(len(triples))]
            lines = ["# generated", "", f"{n} {len(triples)}"]
            for i, j, w in triples:
                lines += ["# edge", ""] if rng.random() < 0.1 else []
                literal = str(int(w)) if w == int(w) else repr(w)
                lines.append(f"{' ' * int(rng.integers(0, 3))}{i}\t{j} {literal}")
            path = write_edges(tmp_path, "\n".join(lines) + "\n")
            expected = gr.Graph(node_count=n, edges=tuple(triples), kind=kind)
            loaded = gr.load_graph(path.read_bytes(), kind=kind)
            assert loaded.node_count == n and loaded.edges == expected.edges
            for variant in (("signed",) if kind == "signed" else ("combinatorial", "normalized")):
                a = gr.build_laplacian(loaded, variant)
                b = gr.build_laplacian(expected, variant)
                for attr in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(csr_arrays(a), attr),
                                          getattr(csr_arrays(b), attr))
            # the adjacency equals the one assembled edge by edge from Python lists
            rows, cols, vals = [], [], []
            for i, j, w in expected.edges:
                rows += [i, j]
                cols += [j, i]
                vals += [w, w]
            reference = sp.csr_array((vals, (rows, cols)), shape=(n, n))
            adj = expected.adjacency()
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(adj, attr), getattr(reference, attr))

    def test_ingest_scales_linearly(self, tmp_path):
        # criterion-05 style: doubling the edges should about double parse + Laplacian time
        paths = {}
        for edges in (50_000, 100_000):
            g = random_gnm(edges // 2, edges, seed=5)
            rows = "\n".join(f"{i} {j} 1" for i, j in zip(g.rows.tolist(), g.cols.tolist()))
            paths[edges] = write_edges(tmp_path, f"{g.node_count} {edges}\n{rows}\n", f"g{edges}.txt")
        # the median over back-to-back pairs: a slow spell of the host slows both runs of a
        # pair, and a pair it splits is an outlier the median drops; the best time of each
        # size alone spread 1.7-2.2 under a competing memory-bound process, this 1.9-2.0
        ratios = []
        for _ in range(21):
            taken = []
            for path in paths.values():
                start = time.perf_counter()
                gr.build_laplacian(gr.load_graph(path.read_bytes()))
                taken.append(time.perf_counter() - start)
            ratios.append(taken[1] / taken[0])
        ratio = float(np.median(ratios))
        assert ratio <= 2.5, f"doubling the edges multiplied ingest time by {ratio:.2f}"


def reference_graphs():
    """300 seeded random graphs, unit, moderate and extreme weights, half of them signed,
    plus edgeless, isolated-node and under/overflow edge cases."""
    rng = np.random.default_rng(2024)
    graphs = [gr.Graph(1), gr.Graph(1, kind="signed"), gr.Graph(6),
              gr.Graph(4, edges=((0, 1, 1e300), (0, 2, 1e-300), (2, 3, 1e-300))),
              gr.Graph(5, edges=((3, 1, 2.0),), kind="signed")]
    for trial in range(300):
        n = int(rng.integers(1, 40))
        base = random_gnp(n, float(rng.uniform(0.0, 0.5)), seed=rng)
        weights = (np.ones(base.edge_count), rng.uniform(0.1, 3.0, base.edge_count),
                   np.exp(rng.uniform(-690.0, 690.0, base.edge_count)))[trial % 3]
        kind = ("unsigned", "signed")[trial % 2]
        if kind == "signed":
            weights = weights * rng.choice([-1.0, 1.0], base.edge_count)
        graphs.append(gr.Graph(n, kind=kind, columns=(base.rows, base.cols, weights)))
    return graphs


def reference_laplacians():
    """Every variant's Laplacian of each reference graph, with the graph."""
    for g in reference_graphs():
        for variant in (("signed",) if g.kind == "signed" else gr.VARIANTS):
            yield g, gr.build_laplacian(g, variant)


def level_graphs():
    """Three graphs past 1024 rows: a G(5000, 30000); the same with node 5000 joined to
    3000 leaves, with weights 1 .. 1/3000, a hub whose entries run past the last level;
    and the same with weights times 1e-300 and nodes 5000 .. 5003 isolated."""
    g = random_gnm(5000, 30_000, seed=2)
    leaves = np.arange(3000)
    hub = gr.Graph(5001, columns=(np.r_[g.rows, leaves], np.r_[g.cols, np.full(3000, 5000)],
                                  np.r_[g.weights, 1 / (1 + leaves)]))
    tiny = gr.Graph(5004, columns=(g.rows, g.cols, g.weights * 1e-300))
    return g, hub, tiny


def csr_arrays(op):
    """op's canonical CSR arrays, gathered from its product layout: row by row, by
    column, with the layout's 0.0 entries left out, as scipy.sparse stores a sum."""
    layout = gr.layout_arrays(op)
    order, wide, n = layout["order"], layout["wide"], op.node_count
    rows = np.concatenate([order[:width] for width in layout["widths"]]
                          + [wide[layout["bins"][wide.size:]]])
    kept = np.flatnonzero(layout["data"] != 0.0)
    kept = kept[np.argsort(rows[kept] * n + layout["indices"][kept])]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows[kept], minlength=n), out=indptr[1:])
    return gr.CsrMatrix(indptr, layout["indices"][kept], layout["data"][kept])


def scipy_view(op):
    """A scipy.sparse view of an operator, or of an adjacency's CSR arrays."""
    csr = op if isinstance(op, gr.CsrMatrix) else csr_arrays(op)
    return sp.csr_array((csr.data, csr.indices, csr.indptr), shape=(csr.indptr.size - 1,) * 2)


def assert_same_csr(ours, theirs):
    # scipy keeps int32 indices for small operators, so indptr and indices are compared
    # as int64 bytes
    for attr, dtype in (("indptr", np.int64), ("indices", np.int64), ("data", float)):
        mine = getattr(ours, attr)
        assert mine.astype(dtype).tobytes() == getattr(theirs, attr).astype(dtype).tobytes()
        assert mine.dtype == dtype


class TestLaplacian:
    def test_assembly_matches_scipy_reference_bit_for_bit(self):
        graphs = reference_graphs()
        assert sum(g.edge_count == 0 for g in graphs) >= 5
        for g in graphs:
            variants = ("signed",) if g.kind == "signed" else gr.VARIANTS
            for variant in variants:
                lap = gr.build_laplacian(g, variant)
                reference, adj = scipy_laplacian(g, variant)
                assert_same_csr(csr_arrays(lap), reference)
                assert lap.toarray().tobytes() == reference.toarray().tobytes()
            ours = g.adjacency()
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(ours, attr), getattr(adj, attr))

    def test_every_variant_is_exactly_symmetric(self):
        for _, lap in reference_laplacians():
            dense = lap.toarray()
            assert dense.tobytes() == dense.T.tobytes()

    def test_product_matches_scipy_bit_for_bit(self):
        # edgeless operators included: their product is float zeros, as scipy's is
        rng = np.random.default_rng(11)
        for _, lap in reference_laplacians():
            x = rng.standard_normal(lap.node_count)
            x[rng.random(x.size) < 0.2] = rng.choice([0.0, -0.0])
            ours = lap @ x
            assert ours.dtype == float and ours.tobytes() == (scipy_view(lap) @ x).tobytes()

    def test_product_by_levels_matches_scipy_bit_for_bit(self):
        # past 1024 rows a product sums level by level, and a hub's entries beyond the last
        # level by bincount from its partial sum; so do the scaled operators, formed in the
        # same layout, at a bound above Gershgorin's, at 2 d for a degree d whose diagonal
        # scales to exactly 0.0, and at 1e300, where the 1e-300 weights' entries underflow
        rng = np.random.default_rng(12)
        g, hub, tiny = level_graphs()
        zeroed = underflows = 0
        for graph in (g, hub, tiny):
            for variant in ("combinatorial", "normalized"):
                lap = gr.build_laplacian(graph, variant)
                x = rng.standard_normal(lap.node_count)
                x[rng.random(x.size) < 0.2] = rng.choice([0.0, -0.0])
                assert lap._levels.widths.size and lap._levels.wide.size
                reference = scipy_view(lap)
                assert (lap @ x).tobytes() == (reference @ x).tobytes()
                if graph is hub:  # the hub's diagonal lies past the last level
                    assert lap._levels.diagonal[5000] >= lap._levels.widths.sum()
                degrees = reference.diagonal()[:5000]  # none isolated
                exact = degrees[(2.0 / (2.0 * degrees)) * degrees == 1.0]
                for lambda_max in (gr.gershgorin_bound(lap) * rng.uniform(1.0, 2.0),
                                   2.0 * float(exact[0]), 1e300):
                    lt = gr.scale_laplacian(lap, lambda_max)
                    scaled = (2.0 / lambda_max) * reference - sp.identity(lap.node_count,
                                                                          format="csr")
                    assert (lt @ x).tobytes() == (sp.csr_array(scaled) @ x).tobytes()
                    on_diagonal = np.sum(lt._levels.data[lt._levels.diagonal] == 0.0)
                    zeroed += int(on_diagonal > 0)
                    underflows += int(np.sum(lt._levels.data == 0.0) > on_diagonal)
        assert zeroed >= 6 and underflows >= 1

    def test_layouts_pinned(self):
        # every layout array, as operator.npz stores it and graph_sha256 reads it, of every
        # reference operator and of the level graphs' combinatorial and normalized ones
        laps = [lap for _, lap in reference_laplacians()]
        laps += [gr.build_laplacian(g, variant) for g in level_graphs()
                 for variant in ("combinatorial", "normalized")]
        digest = hashlib.sha256()
        for lap in laps:
            for name, values in gr.layout_arrays(lap).items():
                digest.update(f"{lap.variant} {name} {values.size}\n".encode())
                digest.update(values.astype("<f8" if name == "data" else "<i8").tobytes())
        assert digest.hexdigest()[:16] == "972d30f5f0b87f05"

    def test_product_refuses_a_vector_of_another_length(self):
        with pytest.raises(ValueError, match="shape"):
            gr.build_laplacian(p2()) @ np.ones(3)

    def test_gershgorin_matches_scipy_bit_for_bit(self):
        for _, lap in reference_laplacians():
            ref = scipy_view(lap)
            diag = ref.diagonal()
            expected = float(np.max(diag + (abs(ref).sum(axis=1) - np.abs(diag))))
            assert gr.gershgorin_bound(lap) == expected

    def test_laplacian_arrays_are_read_only(self):
        lap = gr.build_laplacian(random_gnp(10, 0.4, seed=1))
        for arr in gr.layout_arrays(lap).values():
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_p2_combinatorial(self):
        lap = gr.build_laplacian(p2())
        assert lap.toarray().tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_row_sums_zero(self):
        g = random_gnp(30, 0.2, seed=3)
        lap = gr.build_laplacian(g)
        rows = lap.toarray().sum(axis=1)
        assert np.max(np.abs(rows)) < 1e-12

    def test_normalized_unit_diagonal(self):
        g = random_gnp(25, 0.3, seed=4)
        lap = gr.build_laplacian(g, "normalized")
        dense = lap.toarray()
        deg = scipy_view(g.adjacency()).toarray().sum(axis=1)
        assert np.allclose(np.diag(dense)[deg > 0], 1.0)

    def test_normalized_isolated_node_row_is_zero(self):
        g = gr.Graph(node_count=3, edges=((0, 1, 1.0),))
        dense = gr.build_laplacian(g, "normalized").toarray()
        assert np.all(dense[2] == 0.0) and np.all(dense[:, 2] == 0.0)

    def test_signed_uses_absolute_degree(self):
        g = gr.Graph(node_count=2, edges=((0, 1, -1.0),), kind="signed")
        dense = gr.build_laplacian(g, "signed").toarray()
        # d = |w| on the diagonal, -A off it
        assert dense.tolist() == [[1.0, 1.0], [1.0, 1.0]]

    def test_signed_laplacian_is_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            base = random_gnp(12, 0.4, seed=rng)
            edges = tuple((i, j, float(w * rng.choice([-1.0, 1.0]))) for i, j, w in base.edges)
            g = gr.Graph(node_count=12, edges=edges, kind="signed")
            vals = np.linalg.eigvalsh(gr.build_laplacian(g, "signed").toarray())
            assert vals.min() > -1e-10

    def test_psd_variants_reject_negative_weights(self):
        g = gr.Graph(node_count=2, edges=((0, 1, -1.0),), kind="signed")
        for variant in ("combinatorial", "normalized"):
            with pytest.raises(ValueError):
                gr.build_laplacian(g, variant)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            gr.build_laplacian(p2(), "fancy")


class TestLambdaMax:
    def test_p2_estimate_carries_margin(self):
        est = gr.estimate_lambda_max(gr.build_laplacian(p2()))
        # true top eigenvalue 2, times the 1.01 safety margin
        assert est.value == pytest.approx(2.02, abs=1e-8)
        assert est.converged and not est.degenerate

    def test_estimate_dominates_spectrum(self):
        # >= 600 seeded G(n, p) with edges in all three variants, signed ones with random
        # signs, and G(26, 0.237) at seed 147, where power iteration returned 11.16 < 11.43
        rng = np.random.default_rng(2024)
        cases = [(26, 0.237, 147)] + [(int(rng.integers(4, 40)), float(rng.uniform(0.05, 0.7)),
                                       seed) for seed in range(620)]
        graphs = [(g, n, p, seed) for n, p, seed in cases
                  if (g := random_gnp(n, p, seed=seed)).edge_count]
        assert len(graphs) >= 600
        for g, n, p, seed in graphs:
            signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=g.edge_count)
            signed = gr.Graph(n, kind="signed", columns=(g.rows, g.cols, g.weights * signs))
            for graph, variant in ((g, "combinatorial"), (g, "normalized"), (signed, "signed")):
                lap = gr.build_laplacian(graph, variant)
                est = gr.estimate_lambda_max(lap)
                top = float(np.linalg.eigvalsh(lap.toarray())[-1])
                assert est.converged and est.method == "lanczos", (n, p, seed, variant)
                assert est.value >= top, (n, p, seed, variant)
                assert est.value <= gr.gershgorin_bound(lap) * 1.01 + 1e-12

    def test_estimate_dominates_mid_size_spectra(self):
        # 50 seeded G(n, p), n 40..400, mean degree 0.5..8, in all three variants; first the
        # two signed graphs of a 300-graph sweep where a 1e-3 tolerance returned 9.754 < 9.894
        # and 12.98 < 13.10
        rng = np.random.default_rng(400)
        cases = [(78, 0.043, 65), (393, 0.0108, 92)]
        for seed in range(48):
            n = int(rng.integers(40, 401))
            cases.append((n, float(rng.uniform(0.5, 8.0)) / n, 1000 + seed))
        for n, p, seed in cases:
            g = random_gnp(n, p, seed=seed)
            signs = np.random.default_rng(seed).choice([-1.0, 1.0], size=g.edge_count)
            signed = gr.Graph(n, kind="signed", columns=(g.rows, g.cols, g.weights * signs))
            for graph, variant in ((g, "combinatorial"), (g, "normalized"), (signed, "signed")):
                lap = gr.build_laplacian(graph, variant)
                est = gr.estimate_lambda_max(lap)
                top = float(np.linalg.eigvalsh(lap.toarray())[-1])
                assert est.converged and est.method == "lanczos", (n, p, seed, variant)
                assert est.value >= top, (n, p, seed, variant)

    @pytest.mark.parametrize("variant", ["combinatorial", "normalized"])
    def test_gnm_3000_converges_under_the_cap(self, variant):
        # 105 and 170 steps: over the former 100-step cap, so fit warned and used theta + beta
        lap = gr.build_laplacian(random_gnm(3000, 15_000, seed=4), variant)
        est = gr.estimate_lambda_max(lap)
        # ARPACK at machine precision: a dense eigvalsh at n = 3000 takes about 2 s
        start = np.random.default_rng(0).standard_normal(lap.node_count)
        top = float(sla.eigsh(scipy_view(lap), k=1, which="LA", tol=0, v0=start)[0][0])
        assert est.converged and est.method == "lanczos"
        assert top <= est.value <= top * gr.LAMBDA_SAFETY_MARGIN * (1 + gr._LANCZOS_TOL)

    def test_near_degenerate_top_converges_tightly(self):
        # two disjoint stars, 400 and 399 leaves: lambda_max 401 and 400
        centre, leaves = np.repeat([0, 401], [400, 399]), np.r_[1:401, 402:801]
        g = gr.Graph(801, columns=(centre, leaves, np.ones(799)))
        est = gr.estimate_lambda_max(gr.build_laplacian(g))
        assert est.converged and est.method == "lanczos"
        assert 401.0 <= est.value <= 401.0 * 1.02

    def test_unconverged_path_falls_back_to_gershgorin(self):
        n = 6000
        path = gr.Graph(n, columns=(np.arange(n - 1), np.arange(1, n), np.ones(n - 1)))
        est = gr.estimate_lambda_max(gr.build_laplacian(path))
        assert not est.converged and est.method == "gershgorin"
        assert est.value == 4.0 and type(est.value) is float

    def test_sparse_graph_needs_few_steps(self, monkeypatch):
        monkeypatch.setattr(gr, "_LANCZOS_STEPS", 500)
        lap = gr.build_laplacian(random_gnm(2000, 10_000, seed=1))
        est = gr.estimate_lambda_max(lap)
        assert est.converged and est.iterations <= 20
        assert type(est.value) is float

    def test_gershgorin_p2(self):
        assert gr.gershgorin_bound(gr.build_laplacian(p2())) == 2.0

    def test_zero_operator_flags_degenerate(self):
        lap = gr.build_laplacian(gr.Graph(node_count=3, edges=()))
        est = gr.estimate_lambda_max(lap)
        assert est.degenerate and est.value == 1.0

    @pytest.mark.parametrize("weight", [1e-3, 1e-4, 1e-6, 6.087810885914756e-11])
    def test_small_weights_dominate_spectrum(self, weight):
        # a residual tolerance of tol * max(1, theta) reads as absolute below theta = 1: at
        # 1e-4 the 200-node ring stopped at step 1, its start vector near the null space,
        # with 2.4e-6 against 4e-4. An absolute invariance test, beta <= 1e-12, stopped the
        # 20-node path at 6.09e-11 at step 1 too, with 1.01e-12 against 2.42e-10
        n = 200
        ring = gr.Graph(n, columns=(np.arange(n), (np.arange(n) + 1) % n, np.full(n, weight)))
        path = gr.Graph(20, columns=(np.arange(19), np.arange(1, 20), np.full(19, weight)))
        g = random_gnp(60, 0.1, seed=3)
        signs = np.random.default_rng(3).choice([-1.0, 1.0], size=g.edge_count)
        scaled = gr.Graph(60, columns=(g.rows, g.cols, g.weights * weight))
        signed = gr.Graph(60, kind="signed", columns=(g.rows, g.cols, g.weights * signs * weight))
        for graph, variant in ((ring, "combinatorial"), (path, "combinatorial"),
                               (scaled, "combinatorial"), (scaled, "normalized"),
                               (signed, "signed")):
            lap = gr.build_laplacian(graph, variant)
            est = gr.estimate_lambda_max(lap)
            top = float(np.linalg.eigvalsh(lap.toarray())[-1])
            assert est.converged and est.method == "lanczos", (graph.node_count, variant)
            assert top <= est.value <= top * gr.LAMBDA_SAFETY_MARGIN * (1 + gr._LANCZOS_TOL), (
                graph.node_count, variant)

    def test_weights_near_the_float_range_are_bounded(self):
        # unscaled, large weights overflow in the recurrence and tiny ones read as zero;
        # scaled by 2^-e they all run as one operator, at any scale 2^k
        g = random_gnp(30, 0.2, seed=5)
        reference = None
        for k in (600, 1000, -600, -1000, 40, -40, 300, -300):
            lap = gr.build_laplacian(gr.Graph(30, columns=(g.rows, g.cols,
                                                           np.ldexp(g.weights, k))))
            estimate = gr.estimate_lambda_max(lap)
            reference = reference or estimate
            assert estimate.converged and not estimate.degenerate
            assert estimate.iterations == reference.iterations
            assert estimate.value == np.ldexp(reference.value, k - 600)
            top = np.ldexp(np.linalg.eigvalsh(np.ldexp(lap.toarray(), -k))[-1], k)
            # theta <= lambda_max and r <= tol * theta: value <= top * margin * (1 + tol)
            assert top <= estimate.value <= top * gr.LAMBDA_SAFETY_MARGIN * (1 + gr._LANCZOS_TOL)

    def test_unconverged_scaled_copy_sums_its_underflowed_entries(self, monkeypatch):
        # an unconverged estimate on 2^-e L may take the Gershgorin bound of that copy, in
        # whose rows the entries below 2^(e - 1075) are 0.0: its row sums are scipy's over
        # the copy with those zeros stored, and a zero left out could move a pairwise sum
        monkeypatch.setattr(gr, "_LANCZOS_STEPS", 2)
        rng = np.random.default_rng(8)
        checked = 0
        for _ in range(40):
            g = random_gnp(int(rng.integers(20, 50)), 0.4, seed=rng)
            weights = np.exp(rng.uniform(-300.0, 690.0, g.edge_count))
            lap = gr.build_laplacian(gr.Graph(g.node_count, columns=(g.rows, g.cols, weights)))
            estimate = gr.estimate_lambda_max(lap)
            if estimate.method != "gershgorin":
                continue
            e = int(np.frexp(lap.toarray().diagonal().max())[1])
            csr = csr_arrays(lap)
            copy = sp.csr_array((np.ldexp(csr.data, -e), csr.indices, csr.indptr),
                                shape=(g.node_count,) * 2)
            diag = copy.diagonal()
            bound = float(np.max(diag + (abs(copy).sum(axis=1) - np.abs(diag))))
            assert estimate.value == np.ldexp(bound, e)
            checked += int(np.any(copy.data == 0.0))
        assert checked >= 5

    def test_diagonal_in_the_top_binade_is_bounded(self):
        # the largest diagonal, 1e308, lies in [2^1023, 2^1024): the scale 2^e itself overflows
        lap = gr.build_laplacian(gr.load_graph(b"4 3\n0 1 5e307\n1 2 5e307\n2 3 5e307\n"))
        with np.errstate(all="raise"):
            estimate = gr.estimate_lambda_max(lap)
        dense = np.linalg.eigvalsh(lap.toarray())[-1]
        assert estimate.converged and not estimate.degenerate
        assert np.isfinite(estimate.value)
        assert dense <= estimate.value <= dense * gr.LAMBDA_SAFETY_MARGIN * (1 + gr._LANCZOS_TOL)

    def test_estimate_deterministic(self):
        # one operator, one estimate: the same graph with its edges shuffled and each
        # flipped end for end gives the same bits, steps and method
        g = random_gnp(30, 0.2, seed=5)
        order = np.random.default_rng(1).permutation(g.edge_count)
        shuffled = gr.Graph(node_count=g.node_count,
                            edges=tuple((j, i, w) for i, j, w in (g.edges[k] for k in order)))
        a = gr.estimate_lambda_max(gr.build_laplacian(g))
        b = gr.estimate_lambda_max(gr.build_laplacian(shuffled))
        assert (a.value, a.iterations, a.method) == (b.value, b.iterations, b.method)


class TestGraphSha256:
    def test_canonical_edges_give_one_digest(self):
        a = gr.Graph(node_count=4, edges=((0, 1, 1.0), (2, 1, 0.5), (3, 0, 2.0)))
        b = gr.Graph(node_count=4, edges=((0, 3, 2.0), (1, 2, 0.5), (1, 0, 1.0)))
        lap = gr.build_laplacian(a)
        base = gr.graph_sha256(lap, "unsigned", 3.5)
        assert gr.graph_sha256(gr.build_laplacian(b), "unsigned", 3.5) == base
        # the arrays count by value: narrower integer arrays give the same digest
        narrow = gr.Laplacian.from_layout(
            {name: values if name == "data" else values.astype(np.int32)
             for name, values in gr.layout_arrays(lap).items()}, lap.variant)
        assert gr.graph_sha256(narrow, "unsigned", 3.5) == base

    def test_each_part_changes_the_digest(self):
        g = gr.Graph(node_count=4, edges=((0, 1, 1.0), (1, 2, 0.5)))
        lap = gr.build_laplacian(g)
        base = gr.graph_sha256(lap, "unsigned", 3.5)
        # the same bytes split otherwise between the layout's indices and data
        layout = gr.layout_arrays(lap)
        shifted = gr.Laplacian.from_layout(
            {**layout, "indices": np.append(layout["indices"], layout["data"][:1].view(np.int64)),
             "data": layout["data"][1:]}, lap.variant)
        others = [
            gr.graph_sha256(gr.build_laplacian(gr.Graph(node_count=5, edges=g.edges)),
                            "unsigned", 3.5),
            gr.graph_sha256(lap, "signed", 3.5),
            gr.graph_sha256(gr.build_laplacian(g, "normalized"), "unsigned", 3.5),
            # the same arrays under another variant
            gr.graph_sha256(gr.build_laplacian(g, "signed"), "unsigned", 3.5),
            gr.graph_sha256(lap, "unsigned", np.nextafter(3.5, 4.0)),
            gr.graph_sha256(gr.build_laplacian(
                gr.Graph(node_count=4, edges=((0, 1, 1.0), (1, 2, 0.25)))), "unsigned", 3.5),
            gr.graph_sha256(gr.build_laplacian(
                gr.Graph(node_count=4, edges=((0, 1, 1.0), (1, 3, 0.5)))), "unsigned", 3.5),
            gr.graph_sha256(shifted, "unsigned", 3.5),
        ]
        assert np.array_equal(csr_arrays(gr.build_laplacian(g, "signed")).data,
                              csr_arrays(lap).data)
        assert len({base, *others}) == len(others) + 1


class TestScaledLaplacian:
    def test_p2_scaled_at_two(self):
        lt = gr.scale_laplacian(gr.build_laplacian(p2()), 2.0)
        assert lt.toarray().tolist() == [[0.0, -1.0], [-1.0, 0.0]]

    def test_spectrum_lands_in_unit_interval(self):
        g = random_gnp(20, 0.3, seed=9)
        lap = gr.build_laplacian(g)
        est = gr.estimate_lambda_max(lap)
        lt = gr.scale_laplacian(lap, est.value)
        vals = np.linalg.eigvalsh(lt.toarray())
        assert vals.min() >= -1.0 - 1e-12 and vals.max() <= 1.0 + 1e-12

    def test_matches_scipy_reference_bit_for_bit(self):
        # (2 / lambda_max) L - I as scipy.sparse computes it, at a bound above Gershgorin's
        # and at bounds that make a diagonal entry scale to exactly 0 and 1e-300-scale
        # entries underflow; an isolated node's row takes -1.0 on its diagonal
        rng = np.random.default_rng(12)
        laps = [lap for _, lap in reference_laplacians()]
        dropped = bare = underflows = 0
        for lap in laps:
            n = lap.node_count
            diag = lap.toarray().diagonal()
            bounds = {(gr.gershgorin_bound(lap) or 1.0) * rng.uniform(1.0, 2.0),
                      2.0 * float(diag.max()) or 1.0, 1e300}
            xs = rng.standard_normal((16, n))  # a row's sum order shows in some, not all
            xs[rng.random(xs.shape) < 0.2] = rng.choice([0.0, -0.0])
            for lambda_max in bounds:
                lt = gr.scale_laplacian(lap, lambda_max)
                reference = (2.0 / lambda_max) * scipy_view(lap) - sp.identity(n, format="csr")
                assert_same_csr(csr_arrays(lt), sp.csr_array(reference))
                for x in xs:
                    assert (lt @ x).tobytes() == (sp.csr_array(reference) @ x).tobytes()
                assert lt.lambda_max == lambda_max and type(lt.lambda_max) is float
                assert lt.toarray().tobytes() == reference.toarray().tobytes()
                dropped += int(np.any((lt.toarray().diagonal() == 0.0) & (diag != 0.0)))
                underflows += int(np.any((lt.toarray() == 0.0) & (lap.toarray() != 0.0)
                                         & ~np.eye(n, dtype=bool)))
            bare += int(np.any(diag == 0.0))
        assert dropped >= 50 and bare >= 50 and underflows >= 50

    def test_rejects_bad_lambda_max(self):
        lap = gr.build_laplacian(p2())
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                gr.scale_laplacian(lap, bad)


class TestEigendecompose:
    def test_p2_canonical_basis(self):
        basis = gr.eigendecompose(gr.build_laplacian(p2()))
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        assert np.allclose(basis.eigenvectors, [[s, s], [s, -s]], atol=1e-12)

    def test_orthonormal_and_ordered(self):
        for seed in range(5):
            g = random_gnp(16, 0.4, seed=seed)
            basis = gr.eigendecompose(gr.build_laplacian(g))
            n = basis.node_count
            assert np.allclose(basis.eigenvectors.T @ basis.eigenvectors, np.eye(n), atol=1e-10)
            assert np.all(np.diff(basis.eigenvalues) >= -1e-10)

    def test_sign_convention(self):
        for seed in range(5):
            basis = gr.eigendecompose(gr.build_laplacian(random_gnp(14, 0.4, seed=seed)))
            for col in basis.eigenvectors.T:
                lead = col[np.abs(col) > 1e-12]
                assert lead.size == 0 or lead[0] > 0

    def test_weights_near_the_float_range_decompose(self):
        # dense + dense.T would overflow here: the decomposition reads the matrix as it is
        lap = gr.build_laplacian(gr.load_graph(b"4 3\n0 1 5e307\n1 2 5e307\n2 3 5e307\n"))
        with np.errstate(all="raise"):
            basis = gr.eigendecompose(lap)
        assert np.all(np.isfinite(basis.eigenvalues)) and basis.lambda_max > 1.7e308
        assert np.allclose(basis.eigenvectors.T @ basis.eigenvectors, np.eye(4), atol=1e-12)

    def test_weights_scaled_by_a_power_of_two_decompose_alike(self):
        # eigh is exact under a power-of-two scale; the tie groups, read in the eigenvalues'
        # own frame, are too: 2^k L gives 2^k times the eigenvalues and the same eigenvectors
        n = 1023
        child = np.arange(1, n)
        graphs = [random_gnp(40, 0.2, seed=seed) for seed in range(30)]
        graphs.append(gr.Graph(n, columns=((child - 1) // 2, child, np.ones(n - 1))))
        for g in graphs:
            basis = gr.eigendecompose(gr.build_laplacian(g))
            for k in (-300, -40, 40, 300):
                scaled = gr.Graph(g.node_count, columns=(g.rows, g.cols, np.ldexp(g.weights, k)))
                got = gr.eigendecompose(gr.build_laplacian(scaled))
                assert got.eigenvalues.tobytes() == np.ldexp(basis.eigenvalues, k).tobytes(), k
                assert got.eigenvectors.tobytes() == basis.eigenvectors.tobytes(), k

    def test_zero_matrix_gives_identity(self):
        basis = gr.eigendecompose(gr.build_laplacian(gr.Graph(node_count=4, edges=())))
        assert np.array_equal(basis.eigenvectors, np.eye(4))

    def test_reconstructs_operator(self):
        lap = gr.build_laplacian(random_gnp(12, 0.5, seed=2))
        basis = gr.eigendecompose(lap)
        rebuilt = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
        assert np.allclose(rebuilt, lap.toarray(), atol=1e-10)

    def test_canonical_columns_match_reference_loop_on_tied_spectra(self):
        n = 1023  # a binary tree of depth 9, as in the chain tasks: 970 tied eigenvalues
        child = np.arange(1, n)
        k = 30
        upper = np.triu_indices(k, 1)
        graphs = {
            "star": gr.Graph(200, columns=(np.zeros(199, int), np.arange(1, 200), np.ones(199))),
            "complete": gr.Graph(k, columns=(*upper, np.ones(upper[0].size))),
            "binary_tree": gr.Graph(n, columns=((child - 1) // 2, child, np.ones(n - 1))),
            "path": gr.Graph(120, columns=(np.arange(119), np.arange(1, 120), np.ones(119))),
        }
        for name, g in graphs.items():
            for variant in ("combinatorial", "normalized"):
                dense = gr.build_laplacian(g, variant).toarray()
                values, vectors = np.linalg.eigh(0.5 * (dense + dense.T))
                expected = reference_canonical_columns(values.copy(), vectors.copy())
                got = gr._canonical_columns(values.copy(), vectors.copy())
                for a, b in zip(got, expected):
                    assert a.tobytes() == b.tobytes(), (name, variant)
        # near-ties: a group is anchored at its first eigenvalue, not chained along; the
        # peak lies in [0.5, 1), where the eigenvalues' frame is the identity
        rng = np.random.default_rng(11)
        values = np.array([0.0, 6e-10, 1.2e-9, 1.8e-9, 0.25, 0.25 + 5e-10, 0.25 + 1.5e-9, 0.5,
                           0.5, 0.5, 0.75, 0.875])
        vectors = np.linalg.qr(rng.standard_normal((12, 12)))[0]
        vectors[:, 8] = vectors[:, 9] = vectors[:, 7]  # equal columns keep their order,
        vectors[0, 7:9], vectors[0, 9] = 0.0, -0.0  # and -0.0 equals 0.0
        expected = reference_canonical_columns(values.copy(), vectors.copy())
        got = gr._canonical_columns(values.copy(), vectors.copy())
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_cap_refuses_large_graphs(self):
        lap = gr.build_laplacian(gr.Graph(node_count=gr.DENSE_CAP + 1, edges=()))
        with pytest.raises(ValueError, match="dense"):
            gr.eigendecompose(lap)


class TestGft:
    def test_size_mismatch(self):
        basis = gr.eigendecompose(gr.build_laplacian(p2()))
        with pytest.raises(ValueError, match="does not match"):
            gr.gft(basis, np.ones(3))

    def test_domains_tracked(self):
        # the transform takes vertex values to spectral coefficients
        basis = gr.eigendecompose(gr.build_laplacian(random_gnp(12, 0.4, seed=2)))
        x = np.random.default_rng(3).standard_normal(12)
        assert np.array_equal(gr.gft(basis, x), basis.eigenvectors.T @ x)

    def test_parseval(self):
        basis = gr.eigendecompose(gr.build_laplacian(random_gnp(20, 0.3, seed=8)))
        x = np.random.default_rng(1).standard_normal(20)
        xhat = gr.belief_values(gr.gft(basis, x))
        assert abs(x @ x - xhat @ xhat) <= 1e-9 * (x @ x)


class TestBeliefVector:
    def test_plain_arrays_pass_through(self):
        out = gr.belief_values([1.0, 2.0])
        assert out.dtype == float and out.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError, match="one-dimensional"):
            gr.belief_values([[1.0, 2.0]])


def test_csv_text_quotes_string_cells_as_csv_writer_does():
    header = ("model", "note", "count", "value", "empty")
    rows = [("polynomial(1, 0.5)", 'say "hi"', 3, 0.1, None),
            ("plain", "two\nlines", -1, 1e300, None),
            ("", "cr\rhere", 0, -0.0, None)]
    expected = io.StringIO()
    writer = csv.writer(expected)  # its "\r\n" terminator makes it quote a lone "\r" as well
    writer.writerow(header)
    writer.writerows([[*row[:3], gr.float_text(row[3]), ""] for row in rows])
    assert gr.csv_text(header, rows) == expected.getvalue().replace("\r\n", "\n")


@pytest.mark.parametrize("value", [float("inf"), float("nan")], ids=["inf", "nan"])
def test_csv_text_refuses_a_cell_past_the_float_range(value):
    # no output holds inf or nan: the refusal names the cell's column
    with pytest.raises(ValueError, match=f"^total is {value}, past the float range$"):
        gr.csv_text(("epoch", "total"), [(0, 1.0), (1, value)])

