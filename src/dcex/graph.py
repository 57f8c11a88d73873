"""Immutable directed-graph container with merged neighbour rows and edge-list I/O.

Edges are sorted numpy columns; a node's neighbour row is cut from them on
first read, so a local search pays only for the rows it reads.
"""

from __future__ import annotations

import math

import numpy as np

from .seeding import radix_argsort


class GraphError(ValueError):
    """Base class for graph construction and parsing failures."""


class EdgeListParseError(GraphError):
    """A line of an edge-list file could not be parsed."""


class GraphValidationError(GraphError):
    """Edge data violates a structural constraint (self-loop, bad weight, bad id)."""


class DirectedGraph:
    """Directed, optionally weighted graph with both out- and in-adjacency.

    Nodes are dense integer ids ``0 .. n_nodes-1``; ``labels``, when present,
    maps them bijectively to external string names.  Duplicate (src, dst)
    pairs become one edge whose weight is their sum, taken in input order.
    Self-loops and non-positive weights are rejected, naming the first bad
    edge, and so is a total weight that overflows a float.

    One builder makes every instance from edge columns ``(src, dst,
    weight)``: it validates them, sorts them by (src, dst) unless they come
    so, sums duplicates and computes strengths with numpy, and sorts the
    edges by destination once.
    ``DirectedGraph(n_nodes, edges)`` takes ``(src, dst, weight)`` triples;
    :meth:`from_arrays` takes the columns.

    A node's edges are read from one row, ``nbr_rows[u] = (nbrs, w_in,
    w_out)``, made on the first read of node u and kept: ``nbrs`` the sorted
    neighbours either way, ``w_in[i]`` the weight of ``nbrs[i] -> u`` and
    ``w_out[i]`` that of ``u -> nbrs[i]``, each 0.0 for an absent edge.
    ``adj_nbrs[u]`` is the same ``nbrs`` list.  Rows share one int object
    per node; each row cuts its weights from its own edges.  Read rows by
    node id only: ``len`` and iteration of a row map count the rows made so
    far.  Pickles carry no rows.  Instances are immutable and safe to share
    between concurrent readers.
    """

    __slots__ = (
        "n_nodes",
        "edge_src",
        "edge_dst",
        "edge_weight",
        "edge_count",
        "total_weight",
        "adj_nbrs",
        "nbr_rows",
        "out_strength",
        "in_strength",
        "labels",
        "meta",
        "_label_to_id",
    )

    def __init__(self, n_nodes, edges=(), labels=None, meta=None):
        triples = [(int(s), int(d), float(w)) for s, d, w in edges]
        src, dst, weight = zip(*triples) if triples else ((), (), ())
        self._build(n_nodes, src, dst, weight, labels, meta)

    @classmethod
    def from_arrays(cls, n_nodes, src, dst, weight, labels=None, meta=None):
        """Graph from edge columns: ``src[i] -> dst[i]`` with ``weight[i]``."""
        g = cls.__new__(cls)
        g._build(n_nodes, src, dst, weight, labels, meta)
        return g

    def _with_edges(self, src, dst, weight, meta):
        """Graph on this graph's nodes and labels with other edges.

        The labels and their index were checked when this graph was built,
        so they are shared, not validated and indexed again.
        """
        g = DirectedGraph.__new__(DirectedGraph)
        g._build(self.n_nodes, src, dst, weight, self.labels, meta,
                 self._label_to_id)
        return g

    def _build(self, n_nodes, src, dst, weight, labels, meta, label_to_id=None):
        n_nodes = int(n_nodes)
        if n_nodes < 0:
            raise GraphValidationError("n_nodes must be nonnegative")
        if labels is not None and label_to_id is None:
            labels = tuple(labels)
            if len(labels) != n_nodes:
                raise GraphValidationError(
                    f"got {len(labels)} labels for {n_nodes} nodes"
                )
            label_to_id = {lab: i for i, lab in enumerate(labels)}
            if len(label_to_id) != n_nodes:
                raise GraphValidationError("node labels must be unique")
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        weight = np.asarray(weight, dtype=np.float64)
        _validate_edges(n_nodes, src, dst, weight, labels)

        keys = src * n_nodes + dst
        if (keys[1:] > keys[:-1]).all():
            # Already in (src, dst) order with no duplicates: nothing to sort
            # or sum.  The copies keep the graph from sharing its columns.
            columns = src.copy(), dst.copy(), weight.copy()
        else:
            columns = _sort_and_merge(n_nodes, src, dst, weight, keys)
        self.edge_src, self.edge_dst, self.edge_weight = columns
        self.edge_count = len(self.edge_src)
        with np.errstate(over="ignore"):  # an overflow is named below instead
            self.total_weight = float(self.edge_weight.sum())
        if not math.isfinite(self.total_weight):
            raise GraphValidationError(
                "total edge weight overflows a float (above 1.8e308)")
        self.n_nodes = n_nodes

        self.out_strength = _sums(self.edge_src, self.edge_weight, n_nodes).tolist()
        self.in_strength = _sums(self.edge_dst, self.edge_weight, n_nodes).tolist()
        self.labels = labels
        self.meta = dict(meta) if meta else {}
        self._label_to_id = label_to_id
        self._make_row_maps()

    def _make_row_maps(self):
        self.adj_nbrs, self.nbr_rows = _row_maps(
            self.n_nodes, self.edge_src, self.edge_dst, self.edge_weight)

    def __getstate__(self):
        return {k: getattr(self, k) for k in self.__slots__ if k not in _ROW_MAPS}

    def __setstate__(self, state):
        for k, v in state.items():
            setattr(self, k, v)
        self._make_row_maps()

    # -- lookups ---------------------------------------------------------

    def label_of(self, node: int):
        """External name of a node id (the id itself if the graph is unlabeled)."""
        if self.labels is None:
            return int(node)
        return self.labels[node]

    def id_of(self, label) -> int:
        if self._label_to_id is None:
            raise KeyError("graph has no label table")
        return self._label_to_id[label]

    def __repr__(self):
        return (
            f"DirectedGraph(n_nodes={self.n_nodes}, edges={self.edge_count}, "
            f"m={self.total_weight:g})"
        )


def _validate_edges(n_nodes, src, dst, weight, labels) -> None:
    """Raise for the first edge, in input order, that is out of range, a
    self-loop, or not of finite positive weight."""
    out_of_range = (src < 0) | (src >= n_nodes) | (dst < 0) | (dst >= n_nodes)
    self_loop = src == dst
    bad = out_of_range | self_loop | ~(np.isfinite(weight) & (weight > 0.0))
    if not bad.any():
        return
    i = int(np.argmax(bad))
    s, d, w = int(src[i]), int(dst[i]), float(weight[i])
    if out_of_range[i]:
        raise GraphValidationError(f"edge ({s}, {d}) out of range for {n_nodes} nodes")
    if self_loop[i]:
        name = labels[s] if labels is not None else s
        raise GraphValidationError(f"self-loop at node {name!r}")
    raise GraphValidationError(f"edge ({s}, {d}) has non-positive weight {w}")


def _sort_and_merge(n_nodes, src, dst, weight, keys):
    """Edge columns in (src, dst) order, each duplicate group merged into
    one edge; ``keys`` is ``src * n_nodes + dst``."""
    # Stable sort by (src, dst), so each group of duplicates keeps its
    # input order; bincount then sums every group left to right.
    # (np.add.reduceat would sum long groups pairwise.)
    order = radix_argsort(keys, n_nodes * n_nodes)
    src, dst, weight = src[order], dst[order], weight[order]
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    return src[first], dst[first], _sums(np.cumsum(first) - 1, weight, 0)


def _sums(index, weight, n) -> np.ndarray:
    """Float sums of ``weight`` per value of ``index``, each in input order."""
    return np.bincount(index, weights=weight, minlength=n).astype(np.float64)


_ROW_MAPS = ("adj_nbrs", "nbr_rows")


class _Rows(dict):
    """Node id -> row, cut by ``make(u)`` the first time u is read."""

    __slots__ = ("make",)

    def __init__(self, make):
        self.make = make

    def __missing__(self, u):
        if u < 0:
            raise IndexError(f"node {u} out of range")
        row = self[u] = self.make(u)
        return row


def _offsets(ids, n):
    """``at`` with ``at[u]`` the number of ids below u, for u in 0..n: the
    start of node u's edges in columns sorted by these ids."""
    at = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(ids, minlength=n), out=at[1:])
    return at


def _row_maps(n, src, dst, weight):
    """The row maps, in ``_ROW_MAPS`` order, of a graph whose edge columns
    are sorted by (src, dst).  A stable sort by dst orders the edges by (dst,
    src), so in-neighbours come out sorted too; row u cuts its weights from
    its own edges.  No maker holds its own map or the graph, so a dropped
    graph leaves no reference cycle."""
    by_dst = radix_argsort(dst, n)
    out_at, in_at = _offsets(src, n), _offsets(dst, n)
    node = list(range(n)).__getitem__  # one int object per node

    def nbr_row(u):
        # Merge the sorted out- and in-neighbours, each list ended by n; a
        # neighbour both ways takes one step in each list.
        edges_in = by_dst[in_at[u]:in_at[u + 1]]  # IndexError past the last node
        o, o_end = out_at[u:u + 2].tolist()
        outs, srcs = dst[o:o_end].tolist() + [n], src[edges_in].tolist() + [n]
        ws_out, ws_in = weight[o:o_end].tolist(), weight[edges_in].tolist()
        nbrs, w_in, w_out = [], [], []
        i = j = 0
        while True:
            a, b = outs[i], srcs[j]
            v = a if a < b else b
            if v == n:
                return nbrs, w_in, w_out
            nbrs.append(node(v))
            w_in.append(ws_in[j] if b == v else 0.0)
            w_out.append(ws_out[i] if a == v else 0.0)
            i += a == v
            j += b == v

    nbr_rows = _Rows(nbr_row)
    return _Rows(lambda u: nbr_rows[u][0]), nbr_rows


def load_edge_list(path, directed: bool = True) -> DirectedGraph:
    """Read a whitespace-separated edge list ``src dst [weight]``.

    Lines starting with ``#`` and blank lines are skipped.  Labels are
    arbitrary non-whitespace tokens and are assigned dense node ids in order
    of first appearance.  Duplicate (src, dst) lines have their weights
    summed.  With ``directed=False`` each line is stored as two opposite
    directed edges of equal weight.  A file that is not UTF-8 text raises
    :class:`EdgeListParseError` naming the line of its first bad byte.
    """
    try:
        return _read_edge_list(path, directed)
    except UnicodeDecodeError:
        raise EdgeListParseError(
            f"{path}:{_first_non_utf8_line(path)}: not UTF-8 text") from None


def _first_non_utf8_line(path) -> int:
    """Number of the first line of ``path`` that is not UTF-8 text.  Text
    mode decodes ahead of the line it hands out, so its error does not say."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh.read().splitlines(), start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError:
                return lineno


def _read_edge_list(path, directed):
    ids: dict[str, int] = {}  # label -> node id, in order of first appearance
    src: list[int] = []
    dst: list[int] = []
    weight: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks or toks[0][0] == "#":
                continue
            if len(toks) == 2:
                a, b = toks
                w = 1.0
            elif len(toks) == 3:
                a, b, wtok = toks
            else:
                raise EdgeListParseError(
                    f"{path}:{lineno}: expected 'src dst [weight]', got {line.strip()!r}"
                )
            if a == b:
                raise GraphValidationError(f"{path}:{lineno}: self-loop at node {a!r}")
            if len(toks) == 3:
                try:
                    w = float(wtok)
                except ValueError:
                    raise EdgeListParseError(
                        f"{path}:{lineno}: bad weight {wtok!r}"
                    ) from None
                if not 0.0 < w < math.inf:
                    raise _weight_error(path, lineno, w)
            src.append(ids.setdefault(a, len(ids)))
            dst.append(ids.setdefault(b, len(ids)))
            weight.append(w)

    if not directed:
        # Each line as (u, v) then (v, u), in line order: duplicates are
        # summed in input order.
        src, dst = np.column_stack([src, dst]), np.column_stack([dst, src])
        src, dst, weight = src.ravel(), dst.ravel(), np.repeat(weight, 2)
    try:
        return DirectedGraph.from_arrays(
            len(ids), src, dst, weight, labels=tuple(ids) if ids else None
        )
    except GraphValidationError as exc:  # every line passed; the total did not
        raise GraphValidationError(f"{path}: {exc}") from None


def _weight_error(path, lineno, w: float) -> GraphValidationError:
    if not math.isfinite(w):
        return GraphValidationError(f"{path}:{lineno}: non-finite weight")
    if w < 0:
        return GraphValidationError(f"{path}:{lineno}: negative weight {w}")
    return GraphValidationError(
        f"{path}:{lineno}: zero-weight edge (omit the line instead)"
    )


def save_edge_list(g: DirectedGraph, path) -> None:
    """Write the edge multiset as ``src dst weight`` lines.

    Round-trips the labeled edge multiset through :func:`load_edge_list`.
    Isolated nodes do not appear in the format and are therefore dropped on
    reload.  Raises :class:`GraphValidationError`, before the file is
    opened, on a label whose text would not read back as that label: empty,
    with whitespace, starting with ``#`` or equal to another label's text.
    """
    names = [f"{x}" for x in (g.labels if g.labels is not None else range(g.n_nodes))]
    if g.labels is not None:
        seen = set()
        for name in names:
            if name.split() != [name] or name[0] == "#" or name in seen:
                raise GraphValidationError(
                    f"label {name!r} does not load back from an edge list: a "
                    "label must be nonempty, hold no whitespace, not start "
                    "with '#' and differ from every other label as text")
            seen.add(name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(
            f"{names[s]} {names[d]} {str(int(w)) if w.is_integer() else repr(w)}\n"
            for s, d, w in zip(g.edge_src.tolist(), g.edge_dst.tolist(),
                               g.edge_weight.tolist())
        )


def symmetrize(g: DirectedGraph) -> DirectedGraph:
    """Direction-blind companion graph with A'[i, j] = A[i, j] + A[j, i]."""
    return g._with_edges(
        np.concatenate([g.edge_src, g.edge_dst]),
        np.concatenate([g.edge_dst, g.edge_src]),
        np.concatenate([g.edge_weight, g.edge_weight]),
        None,
    )


def subgraph_complement(g: DirectedGraph, removed) -> tuple[DirectedGraph, list[int]]:
    """Induced subgraph on the nodes outside ``removed``.

    Returns the reindexed graph plus ``kept``, where new id ``i`` corresponds
    to old id ``kept[i]``.
    """
    removed = set(int(u) for u in removed)
    for u in removed:
        if not (0 <= u < g.n_nodes):
            raise GraphValidationError(f"removed node {u} out of range")
    keep = np.ones(g.n_nodes, dtype=bool)
    keep[list(removed)] = False
    kept = np.flatnonzero(keep)
    new_id = np.cumsum(keep) - 1
    inside = keep[g.edge_src] & keep[g.edge_dst]
    labels = tuple(g.labels[u] for u in kept) if g.labels is not None else None
    sub = DirectedGraph.from_arrays(
        len(kept),
        new_id[g.edge_src[inside]],
        new_id[g.edge_dst[inside]],
        g.edge_weight[inside],
        labels=labels,
    )
    return sub, kept.tolist()
