"""Simple labeled graphs, edge subsets, rank, and multipartiteness tests.

Vertices carry integer labels (the stability graphs used elsewhere live on
labels 2..n).  All orderings are canonical: labels ascending, edges sorted
lexicographically with the smaller endpoint first.  Every value here is
immutable and hashable.  Connectivity runs on bitmasks of label positions:
``_fold``, the one component routine, joins an edge set's edges in
canonical order (``_join``) into component vertex masks and the greedy
spanning forest.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional, Sequence


Edge = tuple[int, int]


def _norm_edge(a: int, b: int) -> Edge:
    if a == b:
        raise ValueError(f"loop edge {a}-{b} not allowed")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class Graph:
    """A finite simple graph with a fixed, totally ordered label set."""

    labels: tuple[int, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if list(self.labels) != sorted(set(self.labels)):
            raise ValueError("labels must be strictly ascending")
        lab = set(self.labels)
        seen = set()
        for e in self.edges:
            a, b = e
            if a >= b:
                raise ValueError(f"edge {e} not stored smaller-first")
            if a not in lab or b not in lab:
                raise ValueError(f"edge {e} has endpoint outside label set")
            if e in seen:
                raise ValueError(f"duplicate edge {e}")
            seen.add(e)
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be sorted lexicographically")

    @classmethod
    def from_edges(cls, edges: Iterable[Edge], labels: Iterable[int] = ()) -> "Graph":
        es = sorted({_norm_edge(a, b) for a, b in edges})
        labs = set(labels)
        for a, b in es:
            labs.add(a)
            labs.add(b)
        return cls(tuple(sorted(labs)), tuple(es))

    @classmethod
    def complete(cls, labels: Iterable[int]) -> "Graph":
        labs = tuple(sorted(set(labels)))
        return cls(labs, tuple(combinations(labs, 2)))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Each vertex's neighbours as a bitmask, both indexed by label
        position: bit j of entry i says that labels i and j are adjacent."""
        index = {v: i for i, v in enumerate(self.labels)}
        adj = [0] * len(self.labels)
        for a, b in self.edges:
            adj[index[a]] |= 1 << index[b]
            adj[index[b]] |= 1 << index[a]
        return tuple(adj)

    @cached_property
    def end_bits(self) -> tuple[tuple[int, int], ...]:
        """Each edge's two ends as label-position bits, in edge order."""
        return tuple((1 << self.labels.index(a), 1 << self.labels.index(b)) for a, b in self.edges)

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    def full_edge_set(self) -> "EdgeSet":
        return EdgeSet(self, (1 << len(self.edges)) - 1)

    @cached_property
    def is_connected(self) -> bool:
        """Connectivity over the whole label set, isolated vertices included:
        a search on the adjacency bitmasks reaches every label.  Cached, as
        every stability check asks it of the same graph."""
        if not self.labels:
            return True
        return _connected_on(self.adjacency, (1 << len(self.labels)) - 1)


@dataclass(frozen=True)
class EdgeSet:
    """A subset of a graph's edges, bit-indexed by the canonical edge order."""

    graph: Graph
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < (1 << len(self.graph.edges)):
            raise ValueError("mask out of range for parent graph")

    @classmethod
    def from_edges(cls, graph: Graph, edges: Iterable[Edge]) -> "EdgeSet":
        mask = 0
        idx = graph.edge_index
        for a, b in edges:
            e = _norm_edge(a, b)
            if e not in idx:
                raise ValueError(f"edge {e} not in parent graph")
            mask |= 1 << idx[e]
        return cls(graph, mask)

    @property
    def edges(self) -> tuple[Edge, ...]:
        return tuple(e for i, e in enumerate(self.graph.edges) if self.mask >> i & 1)


_EDGE_LINE = re.compile(r"^\s*(\d+)\s*-\s*(\d+)\s*$")
_VERTEX_LINE = re.compile(r"^\s*vertices\s*:\s*(.*)$")


def parse_graph(text: str) -> Graph:
    """Parse edge-list text: one "i-j" per line, plus optional "vertices:" lines
    declaring isolated vertices."""
    edges: list[Edge] = []
    labels: set[int] = set()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        m = _VERTEX_LINE.match(line)
        if m:
            try:
                labels.update(int(t) for t in m.group(1).split())
            except ValueError:
                raise ValueError(f"line {lineno}: malformed vertices line: {line!r}")
            continue
        m = _EDGE_LINE.match(line)
        if not m:
            raise ValueError(f"line {lineno}: malformed edge line: {line!r}")
        a, b = int(m.group(1)), int(m.group(2))
        if a == b:
            raise ValueError(f"line {lineno}: loop edge {a}-{b}")
        e = _norm_edge(a, b)
        if e in edges:
            raise ValueError(f"line {lineno}: duplicate edge {a}-{b}")
        edges.append(e)
    return Graph.from_edges(edges, labels)


def _join(blocks: tuple[int, ...], ends: tuple[int, int]) -> tuple[tuple[int, ...], bool]:
    """The components ``blocks`` (vertex bitmasks of two or more vertices)
    joined by an edge with end bits ``ends``, and whether the edge raised
    the rank: it does unless one block holds both ends."""
    x, y = bx, by = ends
    for b in blocks:
        if b & x:
            bx = b
        if b & y:
            by = b
    if bx == by:
        return blocks, False
    return tuple([b for b in blocks if b != bx and b != by]) + (bx | by,), True


def _fold(g: Graph, s: EdgeSet) -> tuple[tuple[int, ...], int]:
    """The one component routine: ``s``'s edges joined in canonical edge
    order, giving the vertex bitmasks of its components with an edge and
    the mask of the greedy spanning forest, the edges that raised the rank."""
    if s.graph != g:
        raise ValueError("edge set does not belong to this graph")
    blocks, forest, mask, ends = (), 0, s.mask, g.end_bits
    while mask:
        low = mask & -mask
        mask ^= low
        blocks, grew = _join(blocks, ends[low.bit_length() - 1])
        if grew:
            forest |= low
    return blocks, forest


def _induced(g: Graph, vertices: int) -> int:
    """Mask of g's edges with both ends in the vertex bitmask ``vertices``."""
    return sum(1 << i for i, (x, y) in enumerate(g.end_bits) if vertices & x and vertices & y)


def components(g: Graph, s: EdgeSet) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components of ``s``, non-isolated vertices only,
    sorted by smallest member."""
    return sorted(tuple(v for i, v in enumerate(g.labels) if b >> i & 1) for b in _fold(g, s)[0])


def graph_rank(g: Graph, s: EdgeSet) -> int:
    """Size of the spanning forest of ``s`` that ``_fold`` builds."""
    return _fold(g, s)[1].bit_count()


def spanning_forest(g: Graph, s: EdgeSet) -> EdgeSet:
    """Greedy maximal acyclic subset of ``s`` in canonical edge order."""
    return EdgeSet(g, _fold(g, s)[1])


def _connected_on(adj: Sequence[int], vertices: int) -> bool:
    """Whether the vertex set ``vertices`` (a nonempty bitmask of label
    positions) induces a connected subgraph of the graph with adjacency
    masks ``adj``: a breadth-first search from its lowest vertex that never
    leaves the set reaches all of it."""
    seen = frontier = vertices & -vertices
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            reach |= adj[low.bit_length() - 1]
        frontier = reach & vertices & ~seen
        seen |= frontier
    return seen == vertices


def is_complete_multipartite(g: Graph) -> tuple[bool, Optional[tuple[int, int, int]]]:
    """Decide complete multipartiteness.

    A graph is complete multipartite exactly when no 3 vertices induce exactly
    one edge.  Returns ``(True, None)`` or ``(False, witness_triple)`` with the
    first offending triple in label order.  Each pair is read off the
    adjacency bitmasks.
    """
    adj = g.adjacency
    for i, j, k in combinations(range(len(g.labels)), 3):
        if (adj[i] >> j & 1) + (adj[i] >> k & 1) + (adj[j] >> k & 1) == 1:
            return False, (g.labels[i], g.labels[j], g.labels[k])
    return True, None


def all_graphs(labels: Iterable[int], connected: bool = False) -> Iterator[Graph]:
    """Every labeled graph on the given labels, or only the connected ones.

    Graph number ``bits`` has the edges whose positions in the lexicographic
    list of label pairs are the set bits of ``bits``; graphs come in that
    order.  Each edge subset's edges and adjacency bitmasks extend those of
    the subset without its lowest edge, so with ``connected`` a subset is
    tested on its masks, and a ``Graph`` is built, with its checks, only
    for a connected one.  Every graph is handed its adjacency masks, and
    with ``connected`` its connectivity verdict, as cached values.  In this
    order, the subsets after R, ``bits`` without its lowest edge, and
    before ``bits`` all have a lower lowest edge than R.  So slot t of
    ``last`` holds the last subset seen whose lowest edge is t (the last
    slot the empty one), and R is in the slot of its lowest edge.
    """
    labels = tuple(labels)
    pool = list(combinations(labels, 2))
    ends = list(combinations(range(len(labels)), 2))
    full = (1 << len(labels)) - 1
    last = [((), (0,) * len(labels))] * (len(pool) + 1)
    for bits in range(1 << len(pool)):
        low = bits & -bits
        rest = bits ^ low
        edges, adj = last[(rest & -rest).bit_length() - 1]
        if low:
            t = low.bit_length() - 1
            a, b = ends[t]
            grown = list(adj)
            grown[a] |= 1 << b
            grown[b] |= 1 << a
            edges, adj = last[t] = (pool[t],) + edges, tuple(grown)
        if connected and not _connected_on(adj, full):
            continue
        g = Graph(labels, edges)
        vars(g)["adjacency"] = adj  # the value the cached property would compute
        if connected:
            vars(g)["is_connected"] = True
        yield g
