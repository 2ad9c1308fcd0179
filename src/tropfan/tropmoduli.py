"""Combinatorial types of rational marked tropical curves, radial alignments,
graphic stability, and the translation to chains of flats.

A combinatorial type is a tree with n labeled ends and every internal vertex
at least trivalent; it is determined by its set of splits (the end bipartition
each bounded edge induces, recorded as the side avoiding end 1), so types are
stored canonically as laminar split families, from which ``TropicalType``
derives the tree.  The root is the vertex carrying end 1.  A radial
alignment orders the non-root vertices into levels by their distance from
the root.  Radially aligned types correspond to chains of flats
of the complete graph on labels 2..n: the non-root vertices are the distinct
nontrivial blocks of the chain's flats.  Both directions of that bijection
are implemented here, as is the coordinate translation between the
distance-class space of curves and the edge space of the complete graph.

Stability against a graph only constrains the leaf vertices of a type: the
root carries end 1, and every other vertex is at least trivalent, so one with
two or more bounded edges also holds an end or a further child.  A leaf holds
exactly the ends of its split and needs an edge of the graph inside it.  This
leaf-split rule drives ``is_gamma_stable``; ``reduce`` keeps the splits that
contain an edge of the graph, since contracting unstable leaves removes
exactly the others; and ``_block_index`` lets the rule be read off blocks.
The tests check it against the vertex-local rule in ``tests/oracles.py``.

The moduli fan is built straight from chains of flats.  The leaves of a
radial type are the minimal nontrivial blocks of its chain, and every
nontrivial block contains a minimal one, so a chain's type is stable exactly
when each of its one-flat types is.  A one-flat type hangs one leaf per
nontrivial block of its flat off the root, so a flat is stable exactly when
the graph has an edge inside each of its blocks.  ``_block_index`` lists
the distinct blocks of the complete graph's proper flats once per n, each
with its clique's edge mask and the bitset of its holders' lattice
positions; a block with no edge of the graph makes all its holders
unstable, and ``moduli_fan_rad`` and ``verify_injectivity`` read the stable
flats off that.  The trichotomy reads its injectivity and
rank verdicts off one pass over the blocks: the rank of a flat survives
restriction exactly when each of its blocks is connected in the graph, and
the first stable flat to lose rank is a one-block flat (the lemma is in
``verify_injectivity``).  The route through types, alignments,
``psi_radial_to_cof`` and ``flat_gamma_stable`` stays public and is the
test oracle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, compress
from typing import Iterable, Optional, Sequence, Union

from .bergman import Fan, QuotientVector, _chain_fan, _check_rational, _num, _numerators
from .graphs import (
    EdgeSet,
    Graph,
    _connected_on,
    _induced,
    graph_rank,
    is_complete_multipartite,
    spanning_forest,
)
from .matroid import ChainOfFlats, Flat, FlatLattice, _positions


# ---------------------------------------------------------------------------
# Combinatorial types


def _split_sort_key(s: frozenset) -> tuple:
    return (-len(s), tuple(sorted(s)))


@dataclass(frozen=True)
class TropicalType:
    """A leaf-labeled tree, canonically encoded by its split family.

    Vertex 0 is the root (it carries end 1); vertex i >= 1 corresponds to
    ``splits[i-1]``, the set of ends strictly beyond the i-th bounded edge.
    The constructor checks the splits (ValueError), sorts them largest-first,
    so every parent index is smaller than its child's, and derives the tree:
    ``edges`` lists the bounded edges as (parent, child) vertex pairs,
    sorted.  An end sits at the last split holding it, or at the root.
    """

    n: int
    splits: tuple[frozenset, ...]
    edges: tuple[tuple[int, int], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n
        splits = tuple(sorted({frozenset(s) for s in self.splits}, key=_split_sort_key))
        ends = set(range(2, n + 1))
        for s in splits:
            if not 2 <= len(s) <= n - 2:
                raise ValueError(f"split {sorted(s)} has invalid size for n={n}")
            if not s <= ends:
                raise ValueError(f"split {sorted(s)} mentions ends outside 2..{n}")
        for a, b in combinations(splits, 2):
            if not (a <= b or b <= a or not a & b):
                raise ValueError(f"splits {sorted(a)} and {sorted(b)} are incompatible")
        # No other vertex falls below valence three.  A non-root vertex with
        # split S has a parent edge and either no child and the |S| >= 2 ends of
        # S, one child T < S and the ends of S - T, or two or more children.  The
        # root holds end 1 and two or more maximal splits, or one of size at most
        # n - 2 and another end, or, with no split, the other n - 1 ends.
        if n < 3:
            raise ValueError(f"vertex 0 would be {max(n, 0)}-valent")

        # the supersets of a split form a chain and come before it, largest
        # first, so its parent is its last strict superset
        edges = []
        for i, s in enumerate(splits):
            edges.append((next((j + 1 for j in range(i - 1, -1, -1) if s < splits[j]), 0), i + 1))
        edges.sort()
        object.__setattr__(self, "splits", splits)
        object.__setattr__(self, "edges", tuple(edges))

    @property
    def num_vertices(self) -> int:
        return len(self.splits) + 1


def tropical_type(n: int, splits: Iterable[frozenset]) -> TropicalType:
    """``TropicalType`` on any iterable of end sets; needs n >= 3."""
    return TropicalType(n, tuple(splits))


def star_type(n: int) -> TropicalType:
    return tropical_type(n, ())


def _valid_splits(n: int) -> list[frozenset]:
    pool = []
    for size in range(2, n - 1):
        for s in combinations(range(2, n + 1), size):
            pool.append(frozenset(s))
    return sorted(pool, key=_split_sort_key)


def enumerate_types(n: int) -> dict[int, tuple[TropicalType, ...]]:
    """All combinatorial types with n ends, keyed by bounded-edge count.

    Types are laminar families of splits, enumerated by index-ordered
    backtracking over the compatible-pair relation.
    """
    if not 4 <= n <= 8:
        raise ValueError("type enumeration supports 4 <= n <= 8")
    pool = _valid_splits(n)
    npool = len(pool)
    compatible = [0] * npool
    for i, a in enumerate(pool):
        for j in range(i + 1, npool):
            b = pool[j]
            if a <= b or b <= a or not a & b:
                compatible[i] |= 1 << j
    out: dict[int, list[TropicalType]] = {d: [] for d in range(n - 2)}

    def extend(chosen: list[int], allowed: int, start: int):
        out[len(chosen)].append(tropical_type(n, (pool[i] for i in chosen)))
        if len(chosen) == n - 3:
            return
        mask = allowed >> start << start
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            extend(chosen + [i], allowed & compatible[i], i + 1)

    extend([], (1 << npool) - 1, 0)
    return {d: tuple(ts) for d, ts in out.items() if d <= n - 3}


# ---------------------------------------------------------------------------
# Radial alignments


@dataclass(frozen=True)
class RadialType:
    """A combinatorial type with an ordered partition of its non-root vertices
    into levels by distance from the root."""

    type: TropicalType
    levels: tuple[frozenset, ...]

    def __post_init__(self):
        seen: set[int] = set()
        for block in self.levels:
            if not block:
                raise ValueError("levels must be nonempty")
            if block & seen:
                raise ValueError("levels must be disjoint")
            seen |= set(block)
        if seen != set(range(1, self.type.num_vertices)):
            raise ValueError("levels must partition the non-root vertices")
        level_of = self.level_of
        for u, v in self.type.edges:
            if u != 0 and level_of[u] >= level_of[v]:
                raise ValueError("levels must strictly increase away from the root")

    @property
    def level_of(self) -> dict[int, int]:
        out = {0: 0}
        for i, block in enumerate(self.levels, start=1):
            for v in block:
                out[v] = i
        return out

    @property
    def num_levels(self) -> int:
        return len(self.levels)


def radial_alignments(c: TropicalType) -> list[RadialType]:
    """All ordered partitions of the non-root vertices consistent with levels
    strictly increasing along bounded edges, by number of levels and then in
    ``product`` order of the vertices' levels: for k levels, each vertex in
    index order takes a level above its parent's (whose index is smaller),
    and a branch stops when the vertices left cannot fill the empty levels."""
    count, parent = c.num_vertices - 1, {v: u for u, v in c.edges}
    level = [0] * c.num_vertices  # the root is at level 0
    out = []

    def assign(v: int, k: int, used: int):
        if v > count:
            levels = [frozenset(u for u in range(1, v) if level[u] == i) for i in range(1, k + 1)]
            out.append(RadialType(c, tuple(levels)))
            return
        for i in range(level[parent[v]] + 1, k + 1):
            if k - (used | 1 << i).bit_count() <= count - v:
                level[v] = i
                assign(v + 1, k, used | 1 << i)

    for k in range(count + 1):
        assign(1, k, 0)
    return out


def radial_faces(c: TropicalType) -> list[RadialType]:
    """Faces of the radially subdivided cone of a type: the radial alignments
    of its contractions (an edge whose ends share a level collapses, and
    level zero merges into the root), grouped by contraction: those of
    ``tropical_type(c.n, kept)`` for each subset ``kept`` of ``c.splits``, by
    size and then in ``combinations`` order.  A face's dimension is its
    number of levels; the origin (the star with no levels) comes first."""
    return [
        face
        for k in range(len(c.splits) + 1)
        for kept in combinations(c.splits, k)
        for face in radial_alignments(tropical_type(c.n, kept))
    ]


def radial_face_census(c: TropicalType) -> dict[int, int]:
    """Face counts of the radially subdivided cone, keyed by dimension."""
    return dict(sorted(Counter(rt.num_levels for rt in radial_faces(c)).items()))


# ---------------------------------------------------------------------------
# Graphic stability and reduction


def _check_stability_graph(n: int, gamma: Graph):
    if gamma.labels != tuple(range(2, n + 1)):
        raise ValueError("stability graph must be labeled by 2..n")
    if not gamma.is_connected:
        raise ValueError("stability graph must be connected")


def _meets(s: frozenset, gamma: Graph) -> bool:
    """Whether the split s contains an edge of gamma."""
    return any(a in s and b in s for a, b in gamma.edges)


def is_gamma_stable(c: TropicalType, gamma: Graph) -> tuple[bool, Optional[int]]:
    """Stability against a stability graph: the split of each leaf vertex
    (one with no child) must contain an edge of gamma, and only a leaf can
    be unstable (see the module docstring).  Returns the first unstable
    vertex, if any."""
    _check_stability_graph(c.n, gamma)
    parents = {u for u, _ in c.edges}
    for v in range(1, c.num_vertices):
        if v not in parents and not _meets(c.splits[v - 1], gamma):
            return False, v
    return True, None


def reduce(c: TropicalType, gamma: Graph) -> TropicalType:
    """The stable type that contracting unstable vertices' edges reaches:
    the type of the splits that contain an edge of gamma.

    An unstable vertex is a leaf, and contracting its edge merges it into
    its parent, so a split is contracted exactly when no edge of gamma lies
    inside it: its subsplits have none either and go first.  The tests
    check this against contraction in every order.
    """
    _check_stability_graph(c.n, gamma)
    return tropical_type(c.n, (s for s in c.splits if _meets(s, gamma)))


# ---------------------------------------------------------------------------
# Distance classes


def pair_list(n: int) -> list[tuple[int, int]]:
    return list(combinations(range(1, n + 1), 2))


def _ratios(nums: Iterable[int], d: int) -> tuple:
    """The values x / d: an int where d divides x, else a Fraction."""
    if d == 1:
        return tuple(nums)
    return tuple(x // d if x % d == 0 else Fraction(x, d) for x in nums)


@cache
def _off_root_pairs(n: int) -> tuple[tuple[int, int, int], ...]:
    """For each pair (i, j) with 2 <= i < j <= n, in ``pair_list`` order
    (which is the edge order of the complete graph on 2..n), the indices of
    (i, j), (1, i) and (1, j) in ``pair_list(n)``."""
    index = {p: k for k, p in enumerate(pair_list(n))}
    return tuple(
        (index[i, j], index[1, i], index[1, j])
        for i, j in combinations(range(2, n + 1), 2)
    )


def _gromov_numerators(n: int, y: Sequence[int]) -> list[int]:
    """y_ij - y_1i - y_1j for 2 <= i < j <= n, in edge order: minus twice the
    basepoint-1 Gromov products of the pair vector y.  A vertex-sum
    perturbation x changes each by -2 x_1."""
    return [y[k] - y[a] - y[b] for k, a, b in _off_root_pairs(n)]


@dataclass(frozen=True)
class QnVector:
    """A pairwise-distance vector modulo vertex-sum perturbations.

    Coordinates are indexed by unordered pairs from 1..n in lexicographic
    order; the canonical representative vanishes on the pivot pairs (1,2),
    ..., (1,n) and (2,3), which pins down a unique member of each class.
    """

    n: int
    coords: tuple

    def __post_init__(self):
        _check_rational(self.coords)
        if len(self.coords) != self.n * (self.n - 1) // 2:
            raise ValueError("coordinate length does not match the pair count")

    @classmethod
    def from_raw(cls, n: int, coords: Sequence) -> "QnVector":
        """The canonical member of the class of ``coords`` (ints or
        Fractions).

        Closed form: coordinate (1, j) is 0 and coordinate (i, j) is
        y_ij - y_1i - y_1j + (y_12 + y_13 - y_23).  This is y minus the
        vertex sum with x_1 = (y_12 + y_13 - y_23) / 2 and x_j = y_1j - x_1,
        whose halves cancel.  The sums run on integer numerators over the
        coordinates' least common denominator, which divides back once per
        coordinate: an int where it divides, else a Fraction.
        """
        y, d = _numerators(cls(n, tuple(coords)).coords)
        g = _gromov_numerators(n, y)  # g[0] belongs to the pair (2, 3)
        return cls(n, (0,) * (n - 1) + _ratios([x - g[0] for x in g], d))

    @classmethod
    def zero(cls, n: int) -> "QnVector":
        return cls(n, (0,) * (n * (n - 1) // 2))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "QnVector") -> "QnVector":
        self._check(other)
        return QnVector(self.n, tuple(_num(a + b) for a, b in zip(self.coords, other.coords)))

    def _check(self, other: "QnVector"):
        if self.n != other.n:
            raise ValueError("vectors for different numbers of ends")


def rho_split(n: int, members: Iterable[int]) -> QnVector:
    """Distance class of the one-edge curve with the given split, unit length."""
    s = frozenset(members)
    if 1 in s:
        raise ValueError("splits are recorded on the side avoiding end 1")
    if not 2 <= len(s) <= n - 2:
        raise ValueError("split size out of range")
    raw = [int((i in s) != (j in s)) for i, j in pair_list(n)]
    return QnVector.from_raw(n, raw)


@dataclass(frozen=True)
class MetricType:
    """A combinatorial type with positive rational bounded-edge lengths
    (ints or Fractions, never floats or bools), aligned with ``type.edges``."""

    type: TropicalType
    lengths: tuple[Union[int, Fraction], ...]

    def __post_init__(self):
        if len(self.lengths) != len(self.type.edges):
            raise ValueError("one length per bounded edge required")
        _check_rational(self.lengths, "lengths")
        if any(length <= 0 for length in self.lengths):
            raise ValueError("lengths must be positive")


def dist_vector(m: MetricType) -> QnVector:
    """Canonical class of the vector of pairwise distances between ends.

    Closed form: the distance class is the positive combination
    sum_e l_e rho(S_e) of the split rays, so the raw distance of ends i and
    j is the sum of the lengths l_e of the bounded edges e whose split S_e
    separates i from j.  Since no split holds end 1, d_ij - d_1i - d_1j is
    -2 h_ij, where h_ij sums the l_e of the splits holding both i and j (the
    depth, seen from end 1, of the vertex where i and j meet), and the
    canonical coordinate (i, j) is 2 (h_23 - h_ij).  The sums run on integer
    numerators over the lengths' least common denominator.
    """
    c = m.type
    lengths, d = _numerators(m.lengths)
    # the split of bounded edge (u, v) is the one of its child vertex v
    weighted = [(c.splits[v - 1], length) for (_, v), length in zip(c.edges, lengths)]
    h = [
        sum(length for s, length in weighted if i in s and j in s)
        for i, j in combinations(range(2, c.n + 1), 2)
    ]
    return QnVector(c.n, (0,) * (c.n - 1) + _ratios([2 * (h[0] - x) for x in h], d))


@dataclass(frozen=True)
class QnRelationsReport:
    pair_sum_zero: bool
    split_expansions_ok: bool
    failing_split: Optional[tuple] = None

    @property
    def holds(self) -> bool:
        return self.pair_sum_zero and self.split_expansions_ok


def qn_relations_check(n: int) -> QnRelationsReport:
    """Check, in canonical coordinates, that the rays of two-element splits sum
    to zero and that every split's ray expands as the sum over its pairs."""
    if not 4 <= n <= 8:
        raise ValueError("relation check supports 4 <= n <= 8")
    total = QnVector.zero(n)
    for s in combinations(range(2, n + 1), 2):
        total = total + rho_split(n, s)
    pair_sum_zero = total.is_zero
    for size in range(2, n - 1):
        for s in combinations(range(2, n + 1), size):
            expansion = QnVector.zero(n)
            for pair in combinations(s, 2):
                expansion = expansion + rho_split(n, pair)
            if expansion != rho_split(n, s):
                return QnRelationsReport(pair_sum_zero, False, s)
    return QnRelationsReport(pair_sum_zero, True)


# ---------------------------------------------------------------------------
# The linear translation into edge space


def psi_linear(v: QnVector) -> QuotientVector:
    """The linear isomorphism onto edge space modulo the all-ones line.

    Edge (i, j) of the complete graph on 2..n gets minus the basepoint-1
    Gromov product, -(d(1,i) + d(1,j) - d(i,j)) / 2: minus the depth of the
    vertex where ends i and j meet, seen from end 1.  It is well defined on
    distance classes: a vertex-sum perturbation x changes every coordinate
    by -x_1, a multiple of the all-ones vector, so any representative of the
    class gives the same image.  The ray of split {i, j} goes to minus the
    unit vector of edge (i, j), and the pair-sum relation lands on the class
    of the all-ones vector.  The sums run on integer numerators over the
    coordinates' least common denominator.
    """
    y, d = _numerators(v.coords)
    g = _gromov_numerators(v.n, y)  # twice the image, before canonicalizing
    edges = tuple(combinations(range(2, v.n + 1), 2))
    return QuotientVector(edges, _ratios([x - g[-1] for x in g], 2 * d))


# ---------------------------------------------------------------------------
# The bijection with chains of flats


@cache
def _complete_on(n: int) -> Graph:
    """The complete graph on 2..n, built once per n (with its edge index),
    since ``verify_injectivity`` reads its edge order for every graph."""
    return Graph.complete(range(2, n + 1))


def _require_complete_chain(f: ChainOfFlats) -> tuple[Graph, int]:
    g = f.graph
    n = g.labels[-1]
    if g != _complete_on(n):
        raise ValueError("chain must consist of flats of a complete graph on 2..n")
    return g, n


def psi_cof_to_radial(f: ChainOfFlats, n: Optional[int] = None) -> RadialType:
    """Radially aligned type of a chain of flats.

    Blocks of the i-th flat become vertices at distance (length - i + 1) from
    the root; a block that already occurs one step down is a pass-through and
    is suppressed.  Ends land at the smallest block containing them.
    """
    if len(f) == 0:
        if n is None:
            raise ValueError("the empty chain needs an explicit number of ends")
        return RadialType(star_type(n), ())
    _, n = _require_complete_chain(f)
    r = len(f)
    # a block stays one vertex while it passes through later flats, so it
    # takes the level of the first flat holding it: walking the chain
    # downwards, that flat writes last
    level_of = {frozenset(b): r - idx for idx in range(r - 1, -1, -1) for b in f[idx].blocks}
    typ = tropical_type(n, level_of)
    levels = tuple(
        frozenset(i + 1 for i, s in enumerate(typ.splits) if level_of[s] == lvl)
        for lvl in range(1, r + 1)
    )
    return RadialType(typ, levels)


def psi_radial_to_cof(c: RadialType) -> ChainOfFlats:
    """Chain of flats of a radially aligned type.

    The (length - i + 1)-th flat is the union of the cliques on the splits
    of the vertices at level i or deeper, so deeper cuts give smaller flats.
    Cutting the tree just inside level i leaves one component below each
    such vertex whose parent lies above level i, holding exactly the ends of
    its split: these splits are the flat's blocks, and the other splits nest
    inside them.
    """
    n = c.type.n
    ambient = _complete_on(n)
    flats, mask = [], 0
    for level in reversed(c.levels):  # each flat holds the deeper levels' cliques
        for v in level:  # end e at bit e - 2, as in ``Graph.adjacency``
            mask |= _induced(ambient, sum(1 << (e - 2) for e in c.type.splits[v - 1]))
        flats.append(_complete_flat(n, mask))
    return ChainOfFlats(tuple(flats))


@cache
def _complete_flat(n: int, mask: int) -> Flat:
    """The flat of the complete graph on 2..n with edge mask ``mask``,
    built and checked once per (n, mask): ``psi_radial_to_cof`` meets the
    same few flats again and again, and building the whole lattice of
    flats for one call would cost far more at large n."""
    return Flat(EdgeSet(_complete_on(n), mask))


def flat_gamma_stable(f: Flat, gamma: Graph) -> bool:
    """Stability of the one-flat chain's combinatorial type."""
    radial = psi_cof_to_radial(ChainOfFlats((f,)))
    return is_gamma_stable(radial.type, gamma)[0]


# ---------------------------------------------------------------------------
# Moduli fans, caterpillars, and the injectivity trichotomy


def moduli_fan_rad(n: int, gamma: Union[Graph, str] = "complete") -> Fan:
    """The fan of radially aligned stable types in complete-graph edge space.

    Walks the chains of flats of the complete graph on 2..n whose flats are
    all stable for gamma (read off ``_block_index``), on the up-sets of that
    graph's lattice of flats, built once per n, never building the other
    chains; by the leaf-block argument in the module docstring, these are
    exactly the chains of the gamma-stable radial types.  Each chain's cone
    is spanned by the rays of its flats (``bergman._chain_fan``).
    Projecting the result onto the stability graph's edges gives the image fan.
    """
    if not 4 <= n <= 7:
        raise ValueError("moduli fans support 4 <= n <= 7")
    if gamma == "complete":
        gamma = _complete_on(n)
    if not isinstance(gamma, Graph):
        raise ValueError("gamma must be a Graph or the string 'complete'")
    _check_stability_graph(n, gamma)
    lattice = _complete_lattice(n)
    gmask = EdgeSet.from_edges(lattice.graph, gamma.edges).mask
    unstable = 0
    for _, clique, holders in _block_index(n):
        if not clique & gmask:
            unstable |= holders
    return _chain_fan(lattice, lattice.proper & ~unstable)


def caterpillar_cof(gamma: Graph) -> ChainOfFlats:
    """A maximal chain of cliques grown along a spanning tree of gamma.

    The growth order starts at the first spanning-tree edge and keeps adding
    the smallest vertex joined by a tree edge to those already taken.  The
    flats are the cliques on its prefixes of 2 to |V| - 1 vertices: each
    prefix spans a connected subtree, so the k-th flat's restriction to
    gamma still has rank k and the chain's cone survives projection at full
    dimension.  The associated radial type is a caterpillar.
    """
    if not gamma.is_connected:
        raise ValueError("caterpillar construction needs a connected graph")
    tree_edges = spanning_forest(gamma, gamma.full_edge_set()).edges
    if not tree_edges:
        return ChainOfFlats(())
    ambient = Graph.complete(gamma.labels)
    order = list(tree_edges[0])
    while len(order) < len(gamma.labels) - 1:
        rim = [b if a in order else a for a, b in tree_edges if (a in order) != (b in order)]
        order.append(min(rim))
    grown = [1 << ambient.labels.index(v) for v in order]
    masks = [_induced(ambient, sum(grown[:k])) for k in range(2, len(gamma.labels))]
    chain = ChainOfFlats(tuple(Flat(EdgeSet(ambient, m)) for m in masks))
    for k, flat in enumerate(chain, start=1):
        restricted = EdgeSet.from_edges(
            gamma, (e for e in flat.edges.edges if e in gamma.edge_index)
        )
        if graph_rank(gamma, restricted) != k:
            raise RuntimeError(f"caterpillar flat {k} loses rank on restriction to gamma")
    return chain


@dataclass(frozen=True)
class InjectivityReport:
    injective: bool
    rank_criterion: bool
    multipartite: bool
    witness_flat: Optional[Flat] = None
    witness_triple: Optional[tuple] = None

    @property
    def agree(self) -> bool:
        return self.injective == self.rank_criterion == self.multipartite


@cache
def _complete_lattice(n: int) -> FlatLattice:
    """The lattice of flats of the complete graph on 2..n, built once per n."""
    return FlatLattice(_complete_on(n))


@cache
def _block_index(n: int) -> tuple[tuple[int, int, int], ...]:
    """Each block of the proper flats of ``_complete_lattice(n)`` once, as
    ``(vertex mask, clique mask, holders)``: label v at bit v - 2 (as in
    ``Graph.adjacency``), the clique's edge mask, and the bitset of the
    positions of the flats holding it.  The clique on B is a proper flat,
    and any other flat holding B has a second block and higher rank, so it
    is B's first holder: the blocks come in the order of those flats."""
    lattice = _complete_lattice(n)
    holders: dict[int, int] = {}
    for i in _positions(lattice.proper):
        for b in lattice.blocks[i]:
            holders[b] = holders.get(b, 0) | 1 << i
    return tuple((b, lattice.masks[(h & -h).bit_length() - 1], h) for b, h in holders.items())


# one byte per flat: 1 for a 1 bit of the stable set, 0 for a 0 bit
_STABLE_BYTE = bytes.maketrans(b"01", b"\x00\x01")


def verify_injectivity(gamma: Graph) -> InjectivityReport:
    """Three independent computations of one trichotomy.

    (a) edge-restriction is injective on stable flats of the complete graph,
    (b) edge-restriction preserves the rank of every stable flat, and
    (c) gamma is complete multipartite.  The three are computed independently
    and returned; ``report.agree`` says whether they agree, and the caller
    decides what a split means.

    One pass over the blocks of ``_block_index`` decides (a) and (b).  A
    flat is stable when gamma's edge mask meets the clique mask of each of
    its blocks, so a block with no edge of gamma makes all its holders
    unstable, and the other proper flats are stable; (a) holds when the
    stable flats' restrictions ``mask & gmask`` are distinct.  For (b), a proper
    flat F of the complete graph is the disjoint union of the cliques on
    its blocks B, so F restricted to gamma is the disjoint union of the
    induced subgraphs gamma[B], and its rank is the sum over B of |B|
    minus the number of components of gamma[B].  That equals the rank of
    F, the sum of |B| - 1, exactly when every gamma[B] is connected.

    The witness of (b) is the first stable flat, in the order of flats,
    that loses rank, and it is a one-block flat.  Proof: let F be
    such a flat and B a block of F that gamma[B] leaves disconnected.  As
    F is stable, B holds an edge of gamma, so the clique on B is a stable
    flat; it loses rank, as B is disconnected; and unless it is F, it has
    smaller rank than F, which holds a second block, so it comes before F.
    So the blocks that hold an edge of gamma are tested for connectivity
    in the order of their one-block flats, and the first disconnected one
    names the witness; no block is tested after it.
    """
    if not 1 <= len(gamma.labels) <= 6:
        raise ValueError("verify_injectivity supports 1 to 6 vertices")
    n = gamma.labels[-1]
    _check_stability_graph(n, gamma)
    gmask = EdgeSet.from_edges(_complete_on(n), gamma.edges).mask
    adj = gamma.adjacency  # gamma is labeled 2..n, so label v is at position v - 2
    lattice = _complete_lattice(n)
    unstable = 0
    witness = None
    for vertices, clique, holders in _block_index(n):
        if not clique & gmask:
            unstable |= holders
        elif witness is None and not _connected_on(adj, vertices):
            witness = _complete_flat(n, clique)
    stable = lattice.proper & ~unstable
    picks = f"{stable:0{len(lattice.masks)}b}"[::-1].encode().translate(_STABLE_BYTE)
    images = set(map(gmask.__and__, compress(lattice.masks, picks)))
    injective = len(images) == stable.bit_count()
    multipartite, triple = is_complete_multipartite(gamma)
    return InjectivityReport(injective, witness is None, multipartite, witness, triple)
