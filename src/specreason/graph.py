"""Graphs, Laplacian operators, and the graph Fourier transform.

Beliefs live on vertices; every spectral operation in the package is
anchored to one of the Laplacian variants built here. A Laplacian and its
rescaled form are one operator type, held as the jagged-diagonal layout its
products run on, which build_laplacian writes straight from the edge arrays;
the dense form and the Gershgorin bound are read from that layout. Products,
rescaling and the Gershgorin bound run in NumPy with the bits scipy.sparse gives.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._schema import decode_text

LAMBDA_SAFETY_MARGIN = 1.01
_LANCZOS_TOL = 1e-5  # relative Ritz residual at which the Lanczos value is taken
_LANCZOS_STEPS = 200  # steps after which an unconverged recurrence falls back to a bound
_LANCZOS_DENSE_CHECKS = 50  # Ritz pair checked at every step up to here, then at ceil(1.25 k)
_LEVEL_ROWS = 1024  # fewest rows a level of a product sums by slice; below, bincount adds
DENSE_CAP = 2048
_SIGN_TOL = 1e-12
_TIE_TOL = 1e-9
_MAX_NODES = 3_037_000_499  # largest n with n * n < 2**63: the pair key i * n + j stays exact
_HASH_AFTER_DATA = re.compile(r"^[^\S\n]*[^#\s][^\n]*#", re.MULTILINE)

VARIANTS = ("combinatorial", "normalized", "signed")


class EdgeListError(ValueError):
    """Malformed edge-list input. Carries the offending 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class InvalidEdgeError(ValueError):
    """An edge breaks a graph rule. Carries its 0-based position in the input."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _frozen_array(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, init=False, eq=False)
class Graph:
    """Undirected weighted graph with each edge stored once as (i, j, w), i < j.

    Built from (i, j, w) triples or from ``columns`` (three arrays), in any order and
    orientation; kept as read-only arrays ``rows``, ``cols``, ``weights`` sorted by (i, j).
    The first edge in input order that breaks a rule raises InvalidEdgeError, naming the
    first it breaks of: integer endpoints (a float, even 1.0, or a bool is refused), no
    self-loop, endpoints in range, no repeated pair, and a finite and non-zero weight. A
    weight may take either sign: the Laplacian variant decides which signs it reads
    (build_laplacian).
    """

    node_count: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray

    def __init__(self, node_count: int, edges=(), *, columns=None):
        if type(node_count) is not int or not 1 <= node_count <= _MAX_NODES:  # a bool is no count
            raise ValueError(f"node_count must be a positive integer, at most {_MAX_NODES}")
        raw = columns if columns is not None else (tuple(zip(*edges)) or ((), (), ()))
        (i, odd_i), (j, odd_j) = _endpoints(raw[0]), _endpoints(raw[1])
        w = np.asarray(raw[2], dtype=float)
        if i.ndim != 1 or i.shape != j.shape or i.shape != w.shape:
            raise ValueError("edge columns must be one-dimensional and of equal length")
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keys = lo * node_count + hi
        order = np.argsort(keys)  # the keys of a valid graph are unique: any sort gives one order
        repeat = np.zeros(i.size, dtype=bool)
        if np.any(keys[order[1:]] == keys[order[:-1]]):
            # a repeated pair: sort stably, so its first copy in input order passes
            order = np.argsort(keys, kind="stable")
            repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
        rules = ((odd_i | odd_j, "non-integer endpoint in edge ({ri}, {rj})"),
                 (i == j, "self-loop at node {i}"),
                 ((lo < 0) | (hi >= node_count), "edge ({i}, {j}) out of range for {n} nodes"),
                 (repeat, "duplicate edge ({lo}, {hi})"),
                 (~np.isfinite(w), "non-finite weight on edge ({lo}, {hi})"),
                 (w == 0.0, "zero weight on edge ({lo}, {hi})"))
        bad = np.logical_or.reduce([broken for broken, _ in rules])
        if bad.any():
            k = int(np.argmax(bad))
            text = next(text for broken, text in rules if broken[k])
            raise InvalidEdgeError(k, text.format(i=i[k], j=j[k], lo=lo[k], hi=hi[k], n=node_count,
                                                  ri=raw[0][k], rj=raw[1][k]))
        rows, cols, weights = lo[order], hi[order], w[order]
        for arr in (rows, cols, weights):
            arr.setflags(write=False)
        vars(self).update(node_count=node_count, rows=rows, cols=cols, weights=weights)

    @property
    def edges(self) -> tuple[tuple[int, int, float], ...]:
        return tuple(zip(self.rows.tolist(), self.cols.tolist(), self.weights.tolist()))

    @property
    def edge_count(self) -> int:
        return self.rows.size

    def adjacency(self) -> CsrMatrix:
        """The symmetric adjacency matrix in canonical CSR form, each edge at (i, j) and (j, i).
        No command reads it; it stays while perfbench/tracer.py wraps it by name."""
        indptr, _, left, right = _adjacency_slots(self.node_count, self.rows, self.cols)
        indices = np.empty(2 * self.edge_count, dtype=np.int64)
        data = np.empty(2 * self.edge_count)
        indices[left], indices[right] = self.rows, self.cols
        data[left] = data[right] = self.weights
        return CsrMatrix(*_read_only((indptr, indices, data)))


def _endpoints(values) -> tuple[np.ndarray, np.ndarray]:
    """One endpoint column as int64, and which of its entries are not integers: floats,
    whole ones too, bools and anything else, which read as 0 here. An integer-typed array,
    as load_graph and the generators pass, is taken as it is."""
    if ((isinstance(values, np.ndarray) and values.dtype.kind in "iu")
            or all(t is int or issubclass(t, np.integer) for t in set(map(type, values)))):
        ints = np.asarray(values, dtype=np.int64)
        return ints, np.zeros(ints.shape, dtype=bool)
    odd = np.array([not (type(v) is int or isinstance(v, np.integer)) for v in values])
    return np.array([0 if bad else v for v, bad in zip(values, odd)], dtype=np.int64), odd


def _adjacency_slots(n: int, rows: np.ndarray, cols: np.ndarray):
    """Where the symmetric adjacency of n nodes and the edges (rows[e], cols[e]), sorted
    by (i, j) with i < j, stores each edge in canonical CSR order.

    Row r holds the edges (c, r), by c, left of its diagonal and then the edges (r, c),
    by c. The stored (i, j) order already lists the right-hand parts row by row; the
    left-hand parts are the edges grouped by their larger endpoint. Returns indptr,
    each row's count of left-hand entries, and each stored edge's two slots: ``left``
    for (j, i) in row j and ``right`` for (i, j) in row i.
    """
    m = rows.size
    by_larger = np.argsort(cols * n + rows)  # unique keys below n * n: no stable sort needed
    below = np.bincount(cols, minlength=n)
    above = np.bincount(rows, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(below + above, out=indptr[1:])
    steps = np.arange(m)
    # the k-th edge by larger endpoint r follows the right-hand parts of the rows before r
    slots = (np.cumsum(above) - above)[cols[by_larger]]
    slots += steps
    left = np.empty(m, dtype=np.int64)
    left[by_larger] = slots
    # the e-th stored edge, in row i, follows the left-hand parts of the rows up to i
    right = np.cumsum(below)[rows]
    right += steps
    return indptr, below, left, right


class _Levels(NamedTuple):
    """A sparse operator's entries laid out for its product, level by level: the
    jagged-diagonal storage of Y. Saad, "Krylov subspace methods on supercomputers",
    SIAM J. Sci. Stat. Comput. 10 (1989). It is the form an operator is held in,
    operator.npz stores and graph_sha256 covers; its arrays are all read-only.

    ``order`` lists the rows longest first, so the rows with more than k entries are
    ``order[:widths[k]]`` and their k-th entries one contiguous level of ``data`` and
    ``indices``: a level is summed by one slice, not one entry at a time. Levels run
    while at least _LEVEL_ROWS rows reach them. The ``wide`` rows, with more entries
    than there are levels, keep the rest of their entries after the last level, row by
    row in stored order, summed by one bincount over ``bins``: each wide row's number,
    once for its sum so far and then once for each of its entries there.

    Each row stores its entries by column, with a slot for its diagonal, and
    ``diagonal`` is each row's diagonal slot in ``data``. An isolated node's row holds
    only that slot, at 0.0, so that scale_laplacian can subtract 1.0 from every
    diagonal in place; 0.0 times a finite x_i adds a zero to a sum that began at 0.0,
    which leaves its bits.
    """

    order: np.ndarray
    widths: np.ndarray
    data: np.ndarray
    indices: np.ndarray
    wide: np.ndarray
    bins: np.ndarray
    diagonal: np.ndarray


_LAYOUT_DTYPES = {name: float if name == "data" else np.int64 for name in _Levels._fields}


def _read_only(arrays):
    """arrays, a tuple of arrays, each made read-only."""
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


class CsrMatrix(NamedTuple):
    """A graph's adjacency as canonical CSR arrays, read-only: row i's entries are
    ``data[indptr[i]:indptr[i + 1]]`` at the ascending columns
    ``indices[indptr[i]:indptr[i + 1]]``, one per edge at that node."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray


@dataclass(frozen=True, init=False, eq=False)
class SparseOperator:
    """A square sparse matrix held as its product layout ``_levels`` (see _Levels), its
    only form: ``op @ x``, the matrix-vector product, ``toarray`` and the Gershgorin
    bound all read it. Made from a layout, as ``SparseOperator(levels)``, with a
    subclass's fields by name; the layout's arrays are made read-only.
    """

    def __init__(self, levels: _Levels, **fields):
        vars(self).update(_levels=_read_only(levels), **fields)

    @property
    def node_count(self) -> int:
        return self._levels.order.size

    def __matmul__(self, x) -> np.ndarray:
        """The product with a vector x.

        Each row's products are added in stored order, starting from 0.0, as scipy's
        csr_matvec does, so the result has the bits scipy gives: one level of _levels at
        a time, and past the last level by bincount, which starts each wide row from
        its sum so far (0.0 plus a sum that began at 0.0 is that sum, bit for bit).
        """
        n = self.node_count
        if np.shape(x) != (n,):
            raise ValueError(f"cannot multiply a {n}-node operator by shape {np.shape(x)}")
        levels = self._levels
        products = levels.data * x[levels.indices]
        sums = np.zeros(n)
        start = 0
        for width in levels.widths.tolist():
            sums[:width] += products[start:start + width]
            start += width
        out = np.empty(n)
        out[levels.order] = sums
        if levels.wide.size:
            out[levels.wide] = np.bincount(levels.bins, weights=np.concatenate(
                [out[levels.wide], products[start:]]), minlength=levels.wide.size)
        return out

    def toarray(self) -> np.ndarray:
        """The dense matrix, scattered from the layout; + 0.0 reads a -0.0 entry as 0.0,
        as scipy.sparse, which stores no zero entry of a sum, gives it."""
        levels = self._levels
        dense = np.zeros((self.node_count,) * 2)
        dense[_entry_rows(levels), levels.indices] = levels.data + 0.0
        return dense


def _entry_rows(levels: _Levels) -> np.ndarray:
    """Each entry's row, in the layout's order."""
    return np.concatenate([levels.order[:width] for width in levels.widths]
                          + [levels.wide[levels.bins[levels.wide.size:]]])


@dataclass(frozen=True, init=False, eq=False)
class Laplacian(SparseOperator):
    """A positive semidefinite graph operator of one of the supported variants.

    Its products (``lap @ x``) and dense form (``toarray``) run in NumPy; no scipy
    object is built. build_laplacian makes one from a graph, ``from_layout`` from the
    arrays ``layout_arrays`` gives.
    """

    variant: str

    @classmethod
    def from_layout(cls, arrays, variant: str) -> Laplacian:
        """The Laplacian whose product layout is arrays, a mapping from each name
        layout_arrays gives to an array of it. The arrays are converted to int64 and
        float64 and read only as one-dimensional, never checked further: their
        fingerprint is what tells they are a Laplacian's layout."""
        levels = _Levels(**{name: np.asarray(arrays[name]).astype(dtype, casting="same_kind",
                                                                  copy=False)
                            for name, dtype in _LAYOUT_DTYPES.items()})
        if any(arr.ndim != 1 for arr in levels):
            raise ValueError("a stored layout array is not one-dimensional")
        return cls(levels, variant=_variant(variant))


def _variant(variant: str) -> str:
    """variant, refused unless it names a Laplacian variant."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown Laplacian variant {variant!r}")
    return variant


def layout_arrays(lap: SparseOperator) -> dict:
    """lap's product layout as named arrays: what operator.npz stores."""
    return lap._levels._asdict()


@dataclass(frozen=True, init=False, eq=False)
class ScaledLaplacian(SparseOperator):
    """Laplacian rescaled to (2 / lambda_max) L - I, spectrum inside [-1, 1]; made by
    scale_laplacian inside its Laplacian's product layout."""

    lambda_max: float


@dataclass(frozen=True)
class SpectralBasis:
    """Dense eigendecomposition L = U diag(eigenvalues) U^T.

    Eigenvalues ascend; eigenvector columns follow the deterministic sign
    and tie-break convention applied by :func:`eigendecompose`.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.eigenvalues)
        vecs = _frozen_array(self.eigenvectors)
        if vals.ndim != 1 or vecs.ndim != 2 or vecs.shape != (vals.size, vals.size):
            raise ValueError("eigenvalues and eigenvectors have inconsistent shapes")
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenvectors", vecs)

    @property
    def node_count(self) -> int:
        return self.eigenvalues.size

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def belief_values(x, size: int | None = None) -> np.ndarray:
    """x as a one-dimensional float array, of ``size`` values when size is given: the
    one check of a vector's length against the operator, basis or vector it meets."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise ValueError("belief values must be one-dimensional")
    if size is not None and arr.size != size:
        raise ValueError(f"belief length {arr.size} does not match size {size}")
    return arr


def lambda_max_value(lambda_max) -> float:
    """lambda_max as a float, refused unless positive and finite: the one check of a
    spectral bound before anything rescales by it."""
    if not np.isfinite(lambda_max) or lambda_max <= 0:
        raise ValueError(f"lambda_max must be positive and finite, got {lambda_max}")
    return float(lambda_max)


def scale_exponent(values) -> int:
    """e, the binary exponent of max |values| (0 if all are 0), so the peak of values / 2^e
    lies in [0.5, 1): the one frame every numeric guard works in. Scaling by 2^-e is exact,
    so a sum, product or tolerance formed there reads alike at every weight scale."""
    return int(np.frexp(float(np.max(np.abs(values), initial=0.0)))[1])


FLOAT_FORMAT = "%.17g"  # every number an output writes: 17 significant digits read back exactly
_CSV_SPECIAL = re.compile(r'[,"\r\n]')  # a string cell holding one of these is quoted


def float_text(value, name: str = "a number") -> str:
    """value as every output writes a number, in FLOAT_FORMAT; inf and nan, past the
    float range, are refused with one ValueError that calls the value name."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} is {FLOAT_FORMAT % value}, past the float range")
    return FLOAT_FORMAT % value


def csv_text(header, rows) -> str:
    """CSV text: the header's names on one line, then one line per row. A cell that is
    a string is written as given, or, when it holds a comma, a double quote or a line
    break, quoted with its quotes doubled, as csv.writer does; an int as a decimal, None
    as an empty cell and any other value through float_text, named by its column."""
    def cell(value, name: str) -> str:
        if isinstance(value, str):
            return '"' + value.replace('"', '""') + '"' if _CSV_SPECIAL.search(value) else value
        if isinstance(value, int):
            return str(value)
        return "" if value is None else float_text(value, name)

    return "".join(",".join(cell(value, name) for value, name in zip(row, header, strict=True))
                   + "\n" for row in [header, *rows])


def _loadtxt_ascii(text: str, **kwargs):
    """``np.loadtxt`` over ``text`` in one pass, or None where only a line-by-line read can tell.

    loadtxt converts a field as int() and float() do, or refuses it; it misreads some
    non-ASCII digits, masked here, and would take a "#" after data for a comment, so
    text holding one returns None. So does any text loadtxt refuses.
    """
    body = text.encode("ascii", "replace").decode("ascii")
    if "#" in body and _HASH_AFTER_DATA.search(body):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no data lines
            return np.loadtxt(io.StringIO(body), comments="#", **kwargs)
    except ValueError:
        return None


def _significant_lines(stream: io.StringIO):
    """(number from 1, stripped text) of each line of stream not blank nor a '#' comment."""
    return ((no, stripped) for no, raw in enumerate(stream, start=1)
            if (stripped := raw.strip()) and not stripped.startswith("#"))


def load_graph(raw: bytes) -> Graph:
    """Parse the plain edge-list format from a file's bytes.

    The first significant line is "N M"; the next M significant lines are
    "i j w" with zero-based endpoints. Blank lines and lines starting with
    '#' are skipped. Errors report 1-based line numbers of the raw input; only
    input that fails to load is read line by line, to find that line; only an
    input short of lines counts them all.
    """
    text = decode_text(raw)
    stream = io.StringIO(text)
    significant = _significant_lines(stream)
    head_no, head = next(significant, (None, None))
    if head is None:
        raise EdgeListError(_last_line_no(text), "missing header line")
    try:
        n, m = map(int, head.split())
    except ValueError:
        raise EdgeListError(head_no, f"header must be two integers 'N M', got {head!r}") from None
    if n < 1 or m < 0:
        raise EdgeListError(head_no, f"need N > 0 nodes and M >= 0 edges, got {head!r}")
    columns = _loadtxt_ascii(text[stream.tell():], ndmin=1, unpack=True,
                             dtype=[("i", np.int64), ("j", np.int64), ("w", float)])
    if columns is not None and columns[0].size == m:
        try:
            return Graph(n, columns=columns)
        except InvalidEdgeError:
            pass  # an invalid edge, found line by line below
    lines = list(significant)
    if len(lines) < m:
        raise EdgeListError(_last_line_no(text), f"expected {m} edge lines, found {len(lines)}")
    if len(lines) > m:
        raise EdgeListError(lines[m][0], "trailing data after the declared edge count")
    edges = []
    for no, line in lines:
        try:  # an endpoint beyond int64 names no node
            i, j, w = line.split()
            edges.append((np.int64(int(i)), np.int64(int(j)), float(w)))
        except (ValueError, OverflowError):
            break
    try:  # an invalid edge above the first malformed line comes first
        graph = Graph(n, edges)
    except InvalidEdgeError as exc:
        raise EdgeListError(lines[exc.index][0], str(exc)) from None
    if len(edges) < m:
        no, line = lines[len(edges)]
        raise EdgeListError(no, f"could not parse edge line {line!r} as 'i j w'")
    return graph


def load_beliefs(raw: bytes) -> np.ndarray:
    """Parse a belief file's bytes: one finite float per significant line, as load_graph
    counts lines. Only input that fails to load is read line by line, to name its bad line."""
    text = decode_text(raw)
    values = _loadtxt_ascii(text, ndmin=2, dtype=float)
    if values is not None and values.shape[1] == 1 and values.size and np.isfinite(values).all():
        return values[:, 0]
    beliefs = []
    for no, line in _significant_lines(io.StringIO(text)):
        try:
            beliefs.append(float(line))
        except ValueError:
            raise ValueError(f"line {no}: expected one float, got {line!r}") from None
        if not math.isfinite(beliefs[-1]):
            raise ValueError(f"line {no}: belief {line!r} is not finite")
    if not beliefs:
        raise ValueError("no belief values found")
    return np.asarray(beliefs, dtype=float)


def _last_line_no(text: str) -> int:
    """The 1-based number of text's last line."""
    return text.count("\n") + (not text.endswith("\n"))


def _row_sums(indptr: np.ndarray, data: np.ndarray) -> np.ndarray:
    """Each CSR row's sum, as ``csr_array.sum(axis=1)`` computes it: ``np.add.reduceat``
    over the row's entries, which sums them pairwise. An empty row sums to 0.0."""
    sums = np.zeros(indptr.size - 1)
    filled = np.flatnonzero(np.diff(indptr))
    if filled.size:
        sums[filled] = np.add.reduceat(data, indptr[filled])
    return sums


def build_laplacian(g: Graph, variant: str = "combinatorial") -> Laplacian:
    """Build one of the Laplacian variants for ``g``.

    combinatorial: D - A with d_i = sum_j A_ij.
    normalized:    I - D^{-1/2} A D^{-1/2}; rows of isolated nodes are zero.
    signed:        Dbar - A with dbar_i = sum_j |A_ij|, PSD for signed weights.

    The first two require nonnegative weights; signed accepts any sign. Assembled in
    NumPy from the sorted edge arrays, straight into its product layout (see _Levels):
    each degree is ``np.add.reduceat`` over its row of the adjacency, as scipy's
    ``csr_array.sum(axis=1)`` computes it. Each edge i < j gives one off-diagonal value,
    for normalized -(d_i^{-1/2} w) d_j^{-1/2}, placed at (i, j) and (j, i), so every
    variant is exactly symmetric and an entry that underflows to zero is left out on
    both sides. Row r holds its entries left of the diagonal, its diagonal slot and its
    entries right of it, each part by column.
    """
    variant = _variant(variant)
    if variant != "signed" and np.any(g.weights < 0):
        raise ValueError(f"{variant} Laplacian requires nonnegative weights; use 'signed'")
    n, rows, cols = g.node_count, g.rows, g.cols
    indptr, below, left, right = _adjacency_slots(n, rows, cols)
    adj_data = np.empty(2 * g.edge_count)
    adj_data[left] = adj_data[right] = np.abs(g.weights) if variant == "signed" else g.weights
    degree = _row_sums(indptr, adj_data)
    del adj_data  # freed before the Laplacian's own arrays are allocated
    if variant == "normalized":
        positive = degree > 0
        inv_sqrt = np.divide(1.0, np.sqrt(degree), out=np.zeros(n), where=positive)
        diagonal = np.where(positive, 1.0, 0.0)
        off = -(inv_sqrt[rows] * g.weights * inv_sqrt[cols])
        kept = off != 0.0
        if not kept.all():
            rows, cols, off = rows[kept], cols[kept], off[kept]
            indptr, below, left, right = _adjacency_slots(n, rows, cols)
    else:
        diagonal = degree
        off = -g.weights
    # each entry's row and place in it: the diagonals, then the edges (j, i), then (i, j)
    left -= indptr[cols]
    right -= indptr[rows]
    right += 1
    owner = np.concatenate([np.arange(n), cols, rows])
    place = np.concatenate([below, left, right])
    del left, right
    counts = np.diff(indptr) + 1
    order = np.argsort(-counts, kind="stable")
    longer = n - np.cumsum(np.bincount(counts))  # rows with more than k entries
    widths = longer[longer >= _LEVEL_ROWS]
    levels = widths.size
    wide = order[:longer[levels]]  # longer ends at 0: the rows past the last level
    beyond = counts[wide] - levels
    level_starts = np.concatenate([[0], np.cumsum(widths)])
    # an entry's slot is where its place begins plus its row's offset there. A place
    # below the level count begins its level, and the offset is the row's rank in order;
    # past it, the wide rows' rest entries follow one another in order after the
    # levels, and the offset is where the row's rest begins
    begins = np.append(level_starts[:-1], level_starts[-1] + np.arange(counts.max() - levels))
    offsets = np.zeros((n, 2), dtype=np.int64)  # by row: in a level, then past the levels
    offsets[order, 0] = np.arange(n)
    offsets[wide, 1] = np.cumsum(beyond) - beyond
    owner *= 2  # each entry's offset, in the flattened offsets
    owner += place >= levels
    slots = begins[place]
    del place
    slots += offsets.ravel()[owner]
    del owner
    data = np.empty(slots.size)
    indices = np.empty(slots.size, dtype=np.int64)
    data[slots] = np.concatenate([diagonal, off, off])
    indices[slots] = np.concatenate([np.arange(n), rows, cols])
    bins = np.concatenate([np.arange(wide.size), np.repeat(np.arange(wide.size), beyond)])
    return Laplacian(_Levels(order, widths, data, indices, wide, bins, slots[:n].copy()),
                     variant=variant)


def graph_sha256(lap: Laplacian, lambda_max: float) -> str:
    """SHA-256 over an operator: a Laplacian and a lambda_max bound taken together.

    Covers the signs the variant reads ("signed" for signed, else "unsigned"), the variant,
    float_text(lambda_max), the length of each array of the Laplacian's product layout, and
    those arrays (layout_arrays) in order, as little-endian int64, or float64 for data, so
    the digest is the same on every platform and changes when any of them does. Equal
    digests mean bit-identical arrays: the header fixes every length.
    """
    arrays = layout_arrays(lap)
    sizes = " ".join(str(values.size) for values in arrays.values())
    signs = "signed" if lap.variant == "signed" else "unsigned"
    head = f"{signs} {lap.variant} {float_text(lambda_max)} {sizes}\n"
    digest = hashlib.sha256(head.encode("ascii"))
    for name, values in arrays.items():
        dtype = "<f8" if _LAYOUT_DTYPES[name] is float else "<i8"
        digest.update(np.ascontiguousarray(values, dtype=dtype).data)
    return digest.hexdigest()


class LambdaMaxEstimate(NamedTuple):
    """A lambda_max bound and how it was found: a fitted filter's ``bound``."""

    value: float
    iterations: int
    converged: bool
    degenerate: bool
    method: str  # "lanczos" or "gershgorin": which bound gave the value


def gershgorin_bound(lap: SparseOperator) -> float:
    """Row-sum upper bound max_i (L_ii + sum_{j != i} |L_ij|) on the spectrum.

    Each row sums every entry its layout holds, by column, 0.0 ones too: np.add.reduceat
    sums pairwise, so leaving out the zeros that estimate_lambda_max's 2^-e copy holds
    where an entry underflows could move a sum's last bit.
    """
    levels = lap._levels
    n = levels.order.size
    rows = _entry_rows(levels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    by_row = np.argsort(rows * n + levels.indices)
    diagonal = levels.data[levels.diagonal]
    off = _row_sums(indptr, np.abs(levels.data[by_row])) - np.abs(diagonal)
    return float(np.max(diagonal + off)) if diagonal.size else 0.0


def estimate_lambda_max(lap: Laplacian) -> LambdaMaxEstimate:
    """Upper bound on the largest eigenvalue from a Lanczos recurrence.

    Runs the three-term Lanczos recurrence from one fixed vector, all ones plus
    0.01 N(0, 1) drawn from default_rng(0), so an operator has one lambda_max.
    It holds three n-vectors: no reorthogonalisation, no stored basis.
    The top Ritz pair (theta, z) of the tridiagonal T_k is taken at every step
    k <= _LANCZOS_DENSE_CHECKS, then at ceil(1.25 k) and at _LANCZOS_STEPS, so that
    the checks' dense eigensolves, O(k^3) each, grow as log k past step 50. Once
    theta is at least the largest diagonal entry, which lambda_max of a positive
    semidefinite operator never falls below, and the residual r = |beta_k z_k| is
    at most ``_LANCZOS_TOL * theta`` (1e-5), the value is
    (theta + r) * LAMBDA_SAFETY_MARGIN, since some eigenvalue lies within r of
    theta and theta, a Rayleigh quotient, is at most lambda_max. The Ritz value's
    error is quadratic in r (Parlett, The Symmetric Eigenvalue Problem, 11.7), so the
    1% margin, not the tolerance, sets the value's slack.
    A recurrence that does not converge within _LANCZOS_STEPS steps (200) returns
    the bound theta + beta_k of Y. Zhou and R.-C. Li, "Bounding the spectrum of
    large Hermitian matrices", LAA 435 (2011), or the Gershgorin bound when that
    is smaller, with ``converged`` False and ``method`` naming the bound used.
    Lanczos and Gershgorin run on 2^-e L, e the scale_exponent of the diagonal, and
    only the value is scaled back: L and 2^k L run the same steps, nothing overflows,
    and the tests against _SIGN_TOL (1e-12) are relative to the operator. A beta_k at
    most that ends the recurrence, its Krylov space invariant; a bound at most that is
    the zero operator's, the only degenerate one: value 1.0, flagged, so downstream
    rescaling stays finite.
    """
    n = lap.node_count
    levels = lap._levels
    top = float(np.max(np.abs(levels.data[levels.diagonal]), initial=0.0))
    exponent = scale_exponent(top)
    op = SparseOperator(levels._replace(data=np.ldexp(levels.data, -exponent)))
    floor = float(np.ldexp(top, -exponent))  # lambda_max of op is at least its largest diagonal
    v = np.ones(n) + 0.01 * np.random.default_rng(0).standard_normal(n)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(n)
    alphas, betas = [], []
    beta = 0.0
    check = 1
    for k in range(1, _LANCZOS_STEPS + 1):
        w = op @ v
        w -= beta * v_prev
        alpha = float(v @ w)
        w -= alpha * v
        beta = float(np.linalg.norm(w))
        alphas.append(alpha)
        betas.append(beta)
        # beta ~ 0: the Krylov space is invariant and its Ritz values are exact
        invariant = beta <= _SIGN_TOL
        if invariant or k == check or k == _LANCZOS_STEPS:
            check = k + 1 if k < _LANCZOS_DENSE_CHECKS else -(-5 * k // 4)
            off = betas[:-1]
            vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(off, 1) + np.diag(off, -1))
            theta = float(vals[-1])
            residual = abs(beta * float(vecs[-1, -1]))
            if invariant or (theta >= floor and residual <= _LANCZOS_TOL * theta):
                return _lambda_estimate((theta + residual) * LAMBDA_SAFETY_MARGIN, exponent,
                                        k, True, "lanczos")
        w /= beta
        v_prev, v = v, w
    gershgorin = gershgorin_bound(op)
    if theta + beta < gershgorin:
        return _lambda_estimate(theta + beta, exponent, _LANCZOS_STEPS, False, "lanczos")
    return _lambda_estimate(gershgorin, exponent, _LANCZOS_STEPS, False, "gershgorin")


def _lambda_estimate(scaled: float, exponent: int, iterations: int, converged: bool,
                     method: str) -> LambdaMaxEstimate:
    """The estimate whose value is scaled * 2^exponent, given scaled, a bound on 2^-exponent L."""
    degenerate = scaled <= _SIGN_TOL
    with np.errstate(over="ignore"):  # a bound beyond the float range reads inf, refused later
        value = float(np.ldexp(scaled, exponent))
    return LambdaMaxEstimate(value=1.0 if degenerate else value, iterations=iterations,
                             converged=converged, degenerate=degenerate, method=method)


def scale_laplacian(lap: Laplacian, lambda_max: float) -> ScaledLaplacian:
    """Map the spectrum into [-1, 1] via (2 / lambda_max) L - I.

    Formed inside lap's product layout, whose order, indices and bins it shares, with
    the bits scipy.sparse gives for ``c * L - identity``, c = 2 / lambda_max: every
    entry is scaled by c and a diagonal entry d becomes c d - 1.0. A row with no stored
    diagonal holds 0.0 in its diagonal slot, so it gains -1.0 at its sorted place. An
    entry that comes out exactly 0.0 stays in the layout, where it adds nothing to a
    product with a finite vector, though scipy's sum would not store it. Below about
    1.1e-308, where c is past the float range, each entry is 2 (v / lambda_max).
    """
    lambda_max = lambda_max_value(lambda_max)
    levels = lap._levels
    scale = 2.0 / lambda_max
    data = levels.data * scale if np.isfinite(scale) else 2.0 * (levels.data / lambda_max)
    data[levels.diagonal] -= 1.0
    return ScaledLaplacian(levels._replace(data=data), lambda_max=lambda_max)


def _canonical_columns(eigenvalues: np.ndarray, eigenvectors: np.ndarray):
    """Apply the deterministic sign and tie-break convention in place.

    Each column's first entry larger than _SIGN_TOL in magnitude is made
    positive. A tie group runs from its first eigenvalue through each later one within
    _TIE_TOL of it in the eigenvalues' scale_exponent frame, where their peak lies in
    [0.5, 1); its columns are ordered descending lexicographically, ties kept in order.
    """
    n = eigenvalues.size
    negative = eigenvectors < -_SIGN_TOL
    lead = np.argmax((eigenvectors > _SIGN_TOL) | negative, axis=0)  # row 0 where no entry is
    eigenvectors *= np.where(negative[lead, np.arange(n)], -1.0, 1.0)

    values = np.ldexp(eigenvalues, -scale_exponent(eigenvalues)).tolist()
    start = 0
    while start < n:
        end = start + 1
        while end < n and values[end] - values[start] <= _TIE_TOL:
            end += 1
        if end - start > 1:  # only the group's own values and columns move
            order = start + np.argsort(_descending_keys(eigenvectors[:, start:end]), kind="stable")
            eigenvalues[start:end] = eigenvalues[order]
            eigenvectors[:, start:end] = eigenvectors[:, order]
        start = end
    return eigenvalues, eigenvectors


def _descending_keys(columns: np.ndarray) -> np.ndarray:
    """One byte string per column; their bytewise order is the columns' descending
    lexicographic order, with -0.0 equal to 0.0.

    A float's bits read as an unsigned integer ascend with it for positive floats and
    descend for negative ones. Flipping all but the sign bit of positive floats and
    keeping negative ones as they are gives an integer that descends as the float
    ascends; stored big-endian, byte order is integer order.
    """
    bits = np.add(columns.T, 0.0, order="C").view(np.uint64)  # + 0.0 reads -0.0 as 0.0
    bits ^= ((bits >> np.uint64(63)) - np.uint64(1)) >> np.uint64(1)
    keys = bits.astype(">u8", copy=False)
    return keys.view(np.dtype((np.void, 8 * columns.shape[0]))).ravel()


def eigendecompose(lap: Laplacian) -> SpectralBasis:
    """Dense symmetric eigendecomposition, refused above DENSE_CAP nodes. eigh reads
    one triangle of the dense matrix, which build_laplacian makes exactly symmetric."""
    n = lap.node_count
    if n > DENSE_CAP:
        raise ValueError(f"dense eigendecomposition refused for {n} > {DENSE_CAP} nodes")
    eigenvalues, eigenvectors = np.linalg.eigh(lap.toarray())
    eigenvalues, eigenvectors = _canonical_columns(eigenvalues, eigenvectors)
    return SpectralBasis(eigenvalues=eigenvalues, eigenvectors=eigenvectors)


def gft(basis: SpectralBasis, x) -> np.ndarray:
    """Graph Fourier transform U^T x: vertex values to spectral coefficients.

    Preserves the Euclidean norm since U is orthonormal. The one place U^T x is formed.
    """
    return basis.eigenvectors.T @ belief_values(x, basis.node_count)
