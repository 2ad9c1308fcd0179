"""Bergman fans in the chains-of-flats subdivision, as weighted integral fans.

A cone is a chain of edge sets, stored as the ascending tuple of their bit
masks over its fan's ambient edge list.  Vectors live in the quotient of
edge space by the all-ones line; the canonical representative of a class is
the one whose last coordinate vanishes, which makes equality a plain tuple
comparison and identifies the quotient lattice with the integer vectors
supported on the remaining coordinates.  The ray of a nonempty proper edge
set F is the class of minus its indicator vector: -1 on F when F misses the
last edge and 1 off F when F holds it, so in the nested-set subdivision a
flat's mask names its ray (Ardila-Klivans; Feichtner-Sturmfels).  Every cone
of a chain of flats, and of its projection onto a subgraph's edges, is such
a chain of strictly nested nonempty proper edge sets, and a ``Cone`` refuses
any other masks.

Arithmetic is exact, never floating point.  Vectors (``QuotientVector``,
with int or Fraction coordinates, as psi of a metric curve is rational)
appear only at the API's edge: ``Cone.rays``, ``Fan.rays`` and
``primitive_normal`` make them on each call, and ``cone_with_rayset`` and
``with_weights`` read ray sets back to masks.  A fan makes each distinct
ray's coordinates once, in their order, for the rows of the saturation
certificate and for the JSON writer.  It keeps each cone as a row: its
masks, weight, provenance and ray ids (its rays' positions in that order),
which order the cones and which ``fan_json_chunks`` prints.  A row's
provenance holds each source chain as its ascending edge masks over the
source graph that the fan records; a chain fan's row holds its own masks
tuple.  The walk only joins comparable flats, so the row check on a
walked chain's masks is its one check.  Balancing, projection, equality,
the census and the writer read the rows; ``Cone`` objects, and the
validating ``ChainOfFlats`` of their provenance, are made only at the
API's edge, once per cone and fan, from one ``Flat`` per mask and fan.

Ray order, the order of the rays' canonical coordinates, puts the sets
that miss the last edge first and, within each group, a superset before
its subsets.  Proof: where the coordinates first differ, a ray of the
first group reads -1 or 0 and one of the second 0 or 1, not both 0; within
a group, they first differ at the lowest edge in exactly one of the two
sets, where the ray of the set holding it reads -1 against 0, or 0 against
1, and that set is the larger of two nested ones.  So a chain fan's
columns come in cone order, with no sort, from a depth-first walk over
the flats in ray order (``matroid._chains_in_cone_order``), and the row
builder sorts only rows in no known order: projection images and the
cones handed to ``Fan``.

The subdivision is unimodular: the canonical rays of a chain are signed
indicators of a laminar family of edge sets (the sets missing the last edge
and the complements of those holding it), so their matrix is totally
unimodular and the rays are a basis of the lattice points of their span.
The primitive normal of a facet is therefore the ray of the set it lacks,
and fans are equal when their chains and maximal weights are.  Balancing
reads one index per masks column, which the reweighted copies of a fan
share, as they share its masks: the maximal cones indexed by their
facets' masks, built once, so each codimension-one face visits only its
own star; a flag that every maximal cone is certified, set by one loop
on the column's first call, in which ``intlinalg.saturation`` hands each
cone's rays back unchanged; and each face's verdict, kept per tuple of
its star's weights, so each (face, star weights) test runs once.  Its
span test needs no linear algebra: a vector lies in the span of a chain's
rays plus the all-ones line exactly when it is constant on each layer F_1,
F_2 - F_1, ..., E - F_k of the chain, so balancing adds the star's edge
sets, weighted, on edge masks and compares the sums within each layer.
The certificate is the library's one integer elimination: exact row
subtraction at unit pivots, which the chain's totally unimodular rays
always offer.  It can never fail on a ``Cone``'s rays, and stays because
the benchmark's gate counts the ``saturation`` calls it makes.

A Bergman fan has weight one, and the star of a codimension-one face with
the rank-2 gap [A, B] is the set of atoms of that interval of the lattice
of flats.  So ``lattice_balanced`` gives the fan's verdict from the
lattice alone, one layer test per rank-2 interval instead of one per face,
and the CLI's ``fan`` takes its ``balanced`` field from it; ``is_balanced``
stays the weighted checker for built fans, such as reweighted ones.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from . import intlinalg as ila
from .graphs import Edge, EdgeSet, Graph
from .matroid import ChainOfFlats, Flat, FlatLattice, _chains_in_cone_order, _positions, graph_rank


def _num(x):
    """Collapse integral Fractions to ints; leaves other values untouched."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


_RATIONAL_TYPES = frozenset((int, Fraction))


def _check_rational(values: Sequence, what: str = "coordinates"):
    """Refuse any value but an int or a Fraction, such as a float or a bool
    (which arithmetic takes for an int); issuperset over map(type, ...) scans in C."""
    if not _RATIONAL_TYPES.issuperset(map(type, values)):
        bad = next(v for v in values if type(v) not in _RATIONAL_TYPES)
        raise ValueError(f"{what} must be ints or Fractions, got {bad!r}")


def _numerators(values: Sequence) -> tuple[list[int], int]:
    """Rational values (ints or Fractions) as integer numerators over their
    least common denominator d, and d."""
    _check_rational(values)
    d = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (d // v.denominator) for v in values], d


@dataclass(frozen=True)
class QuotientVector:
    """A vector of edge space modulo the all-ones line, canonical form.

    ``coords`` is indexed by ``ambient`` (a canonical edge list); the stored
    representative always has last coordinate zero.  Coordinates are stored
    as ints or Fractions; anything else, such as a float, is refused.
    """

    ambient: tuple[Edge, ...]
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != len(self.ambient):
            raise ValueError("coordinate length does not match ambient edges")
        if self.coords and self.coords[-1] != 0:
            raise ValueError("canonical representative must end in 0")
        _check_rational(self.coords)

    def __hash__(self) -> int:
        # equal vectors have equal coords; hashing the ambient edge tuple too
        # would rehash every edge on each set and dict operation
        return hash(self.coords)

    @classmethod
    def from_raw(cls, ambient: Sequence[Edge], coords: Sequence) -> "QuotientVector":
        coords = list(coords)
        _check_rational(coords)
        if not coords:
            return cls(tuple(ambient), ())
        last = coords[-1]
        return cls(tuple(ambient), tuple(_num(c - last) for c in coords))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "QuotientVector") -> "QuotientVector":
        self._check(other)
        return QuotientVector(
            self.ambient, tuple(_num(a + b) for a, b in zip(self.coords, other.coords))
        )

    def _check(self, other: "QuotientVector"):
        if self.ambient != other.ambient:
            raise ValueError("vectors over different ambient edge lists")


def ray_of_flat(f: Flat, ambient: Sequence[Edge]) -> QuotientVector:
    """Canonical class of minus the indicator vector of the flat's edges."""
    ambient = tuple(ambient)
    positions = {e: i for i, e in enumerate(ambient)}
    raw = [0] * len(ambient)
    for e in f.edges.edges:
        if e not in positions:
            raise ValueError(f"flat edge {e} outside the ambient edge list")
        raw[positions[e]] = -1
    return QuotientVector.from_raw(ambient, raw)


def _ray_coords(mask: int, m: int) -> tuple[int, ...]:
    """The canonical coordinates of the ray of the nonempty proper edge set
    ``mask`` among m edges: -1 on the set when it misses the last edge, and
    1 off it when it holds it."""
    if mask >> (m - 1) & 1:
        return tuple(1 - (mask >> i & 1) for i in range(m))
    return tuple(-(mask >> i & 1) for i in range(m))


def _ray(ambient: tuple[Edge, ...], mask: int) -> QuotientVector:
    return QuotientVector(ambient, _ray_coords(mask, len(ambient)))


def _check_row(masks: tuple[int, ...], weight, full: int):
    """Refuse a weight that is not a positive int, and masks that are not
    strictly nested, nonempty, proper subsets of the edge set ``full``,
    ascending: a strict superset is a larger int, so a chain ascends as
    ints; it starts above the empty set and stays below the full one."""
    if type(weight) is not int or weight < 1:
        raise ValueError(f"cone weights are positive integers, got {weight!r}")
    below = 0
    for mask in masks:
        if not below < mask < full or below & ~mask:
            raise ValueError("cone rays must be the rays of strictly nested nonempty "
                             f"proper edge sets, got the masks {masks!r}")
        below = mask


def _check_rows(chains: Sequence[tuple[int, ...]], weights: Sequence, full: int):
    """``_check_row`` on every row, and refuse a chain given twice."""
    for masks, weight in zip(chains, weights):
        _check_row(masks, weight, full)
    if len(set(chains)) < len(chains):
        raise ValueError("conflicting cones: a ray set is given twice")


@dataclass(frozen=True, slots=True)
class Cone:
    """A cone spanned by the rays of a chain of edge sets, with weight and
    origin: ``masks`` are the sets over ``ambient`` (the edge list its fan
    shares), ascending, each a strict subset of the next and none empty or
    full, as is checked with the weight.  Such rays are independent, so the
    cone is simplicial.  ``rays`` and ``rayset`` make vectors on each call."""

    ambient: tuple[Edge, ...] = field(repr=False)
    masks: tuple[int, ...]
    weight: int = 1
    provenance: tuple[ChainOfFlats, ...] = field(default=(), compare=False)

    def __post_init__(self):
        _check_row(self.masks, self.weight, (1 << len(self.ambient)) - 1)

    @property
    def dim(self) -> int:
        return len(self.masks)

    @property
    def rays(self) -> tuple[QuotientVector, ...]:
        """The rays as vectors, in the order of their canonical coordinates."""
        return tuple(sorted((_ray(self.ambient, x) for x in self.masks), key=lambda r: r.coords))

    @property
    def rayset(self) -> frozenset:
        return frozenset(self.rays)


class Fan:
    """A weighted polyhedral fan given by its (simplicial) cones.

    The fan stores each cone as a row, in cone order: its ascending masks,
    its weight, its provenance and its ray ids, one column each.  A row's
    provenance is a tuple of source chains, each the ascending masks of
    its flats over the fan's source graph (``Fan(ambient, cones)`` stores
    each given chain's masks, and refuses chains of two graphs with
    ValueError); the row's ``Cone`` gets them back as ``ChainOfFlats``,
    each distinct flat made once per fan.  Every cone lies over the fan's
    ambient edge list (a cone over another is refused with ValueError),
    each chain is given at most once (a second cone on it is refused, as
    no chain of flats yields one; ``project_fan`` merges its fibers before
    building the image), and the cone with no rays is always present.
    Cones are ordered by dimension and then by ray ids, their rays'
    positions in the order of the rays' canonical coordinates, so repeated
    construction is byte-stable.
    ``Cone`` objects are made from the rows only when the API hands one out
    (``cones``, ``cones_of_dim``, ``cone_with_rayset`` and
    ``failing_face``), at most once per cone and fan.  The cones must be
    closed under faces, which is checked when the maximal rows are first
    read: ``is_pure``, ``is_balanced``, ``fans_equal`` and ``with_weights``
    refuse a fan that is not with ValueError.  Each built fan gets its own
    empty balancing index, which ``is_balanced`` fills and the fan's
    reweighted copies share; a fan built again from the same cones starts
    a new one.
    """

    def __init__(self, ambient: Sequence[Edge], cones: Iterable[Cone]):
        ambient = tuple(ambient)
        rows, source = [], None
        for cone in cones:
            # every library fan shares its cones' ambient tuple; masks name
            # rays only over this one edge list
            if cone.ambient is not ambient and cone.ambient != ambient:
                raise ValueError("a cone lies over another ambient edge list")
            for c in cone.provenance:
                if c.flats:
                    if source is not None and c.graph != source:
                        raise ValueError("provenance chains of flats of two graphs")
                    source = c.graph
            chains = tuple(tuple(f.mask for f in c.flats) for c in cone.provenance)
            rows.append((cone.masks, cone.weight, chains))
        self._build(ambient, rows, source)

    @classmethod
    def _from_rows(cls, ambient: tuple[Edge, ...], rows: Iterable[tuple], source) -> "Fan":
        """The fan of (masks, weight, provenance) rows over ``ambient``, the
        provenance a tuple of chains, each of masks over ``source``."""
        fan = cls.__new__(cls)
        fan._build(ambient, rows, source)
        return fan

    def _build(self, ambient: tuple[Edge, ...], rows: Iterable[tuple], source):
        """The row builder for rows in no known order: add the cone with no
        rays if it is missing, and sort the rays, each cone's ray ids and
        the rows into cone order, through their positions, so the sort makes
        no tuple per row, which would stay tracked by the garbage collector."""
        chains, weights, provenance = [], [], []
        for masks, weight, origin in rows:
            chains.append(masks)
            weights.append(weight)
            provenance.append(origin)
        _check_rows(chains, weights, (1 << len(ambient)) - 1)
        if () not in chains:
            chains.append(())
            weights.append(1)
            provenance.append(())
        m = len(ambient)
        rays = sorted({x for k in chains for x in k}, key=lambda x: _ray_coords(x, m))
        rank = {x: i for i, x in enumerate(rays)}.__getitem__
        ids = [tuple(sorted(map(rank, k))) for k in chains]
        order = sorted(range(len(ids)), key=ids.__getitem__)
        order.sort(key=list(map(len, ids)).__getitem__)  # stable
        columns = [tuple(map(c.__getitem__, order)) for c in (ids, chains, weights, provenance)]
        self._lay_out(ambient, source, rays, *columns)

    def _lay_out(self, ambient, source, rays, ray_ids, masks, weights, provenance):
        """Keep the checked rows' columns, tuples in cone order, and each
        ray's canonical coordinates, made once, in the order of ``rays``."""
        self.ambient, self._source = ambient, source
        self._coords = {x: _ray_coords(x, len(ambient)) for x in rays}
        self._mask_of = {coords: x for x, coords in self._coords.items()}  # read by ray-set lookups
        self._ray_ids, self._masks = ray_ids, masks
        self._weights, self._provenance = weights, provenance
        self.max_dim = len(masks[-1])
        # the cones of dimension d are the rows in by_dim[d]
        counts = [0] * (self.max_dim + 2)
        for chain in masks:
            counts[len(chain) + 1] += 1
        starts = list(accumulate(counts))
        self._by_dim = [range(a, b) for a, b in zip(starts, starts[1:])]
        self._made: dict[int, Cone] = {}
        self._flats: dict[int, Flat] = {}  # the provenance's flats, by mask, made on request
        # what balancing reads off the masks column; reweighted copies share it
        self._balancing = _BalancingIndex()

    def _cone(self, i: int) -> Cone:
        """Row i as a ``Cone``, made on the first request, with each chain
        of its provenance made a ``ChainOfFlats`` of flats of the source
        graph, each distinct flat made once per fan."""
        cone = self._made.get(i)
        if cone is None:
            chains = tuple(ChainOfFlats(tuple(map(self._flat, k))) for k in self._provenance[i])
            cone = self._made[i] = Cone(self.ambient, self._masks[i], self._weights[i], chains)
        return cone

    def _flat(self, mask: int) -> Flat:
        if mask not in self._flats:
            self._flats[mask] = Flat(EdgeSet(self._source, mask))
        return self._flats[mask]

    @cached_property
    def cones(self) -> tuple[Cone, ...]:
        return tuple(map(self._cone, range(len(self._masks))))

    @property
    def rays(self) -> tuple[QuotientVector, ...]:
        return tuple(QuotientVector(self.ambient, coords) for coords in self._coords.values())

    def cones_of_dim(self, d: int) -> tuple[Cone, ...]:
        return tuple(map(self._cone, self._by_dim[d])) if 0 <= d <= self.max_dim else ()

    @cached_property
    def _index(self) -> dict[tuple[int, ...], int]:
        """Each cone's row, by its masks."""
        return {masks: i for i, masks in enumerate(self._masks)}

    @cached_property
    def _maximal(self) -> tuple[int, ...]:
        """The rows of the maximal cones.  In a fan closed under taking ray
        subsets, non-maximal cones are exactly the facets of some other
        cone.  Closure is checked here, not when the fan is built, where it
        would cost every fan."""
        facets = set()
        for masks in self._masks:
            for i in range(len(masks)):
                facets.add(masks[:i] + masks[i + 1 :])
        if not facets <= self._index.keys():
            raise ValueError("the fan is not closed under faces")
        return tuple(i for i, masks in enumerate(self._masks) if masks not in facets)

    @property
    def is_pure(self) -> bool:
        return all(len(self._masks[i]) == self.max_dim for i in self._maximal)

    def _row_of(self, rays: Iterable[QuotientVector]) -> Optional[int]:
        """The row of the cone on ``rays``, or None if there is none."""
        mask_of = self._mask_of
        masks = [mask_of.get(r.coords) if r.ambient == self.ambient else None for r in rays]
        return None if None in masks else self._index.get(tuple(sorted(masks)))

    def cone_with_rayset(self, rayset: frozenset) -> Optional[Cone]:
        i = self._row_of(rayset)
        return None if i is None else self._cone(i)

    def with_weights(self, overrides: dict[frozenset, int]) -> "Fan":
        """The fan with some weights replaced, each named by its cone's ray
        set.  A ray set that is not a cone of this fan is refused with
        ValueError, and so is a weight that is not a positive int.

        The chains are this fan's, so the new fan shares its masks,
        provenance and ray ids columns, its ray coordinates, its index of
        rows and maximal rows, and its balancing index (the stars, the
        certified flag and the verdicts by face and star weights),
        with this fan and every other copy of it; only the weights column
        is new."""
        rows = {self._row_of(rays): w for rays, w in overrides.items()}
        if None in rows:
            raise ValueError("with_weights names a ray set that is not a cone of this fan")
        self._maximal  # refuses a fan that is not closed under faces
        full = (1 << len(self.ambient)) - 1
        weights = list(self._weights)
        for i, w in rows.items():
            _check_row(self._masks[i], w, full)
            weights[i] = w
        fan = copy(self)
        fan._weights, fan._made = tuple(weights), {}
        fan.__dict__.pop("cones", None)  # cached Cones carry the old weights
        return fan

    def census(self) -> tuple[int, ...]:
        """Cone counts by dimension 0..max_dim."""
        return tuple(map(len, self._by_dim))


def bergman_fan(g: Graph, lattice: Optional[FlatLattice] = None) -> Fan:
    """The fan whose cones are spanned by rays of chains of proper nonempty
    flats, all weights one; its dimension is rank(g) - 1.  ``lattice`` is
    g's ``FlatLattice``, if the caller has built it already."""
    if lattice is None:
        lattice = FlatLattice(g)
    elif lattice.graph != g:
        raise ValueError("the lattice is not the graph's")
    fan = _chain_fan(lattice, lattice.proper)
    expected = max(graph_rank(g, g.full_edge_set()) - 1, 0)
    if fan.max_dim != expected:
        raise RuntimeError(
            f"Bergman fan has dimension {fan.max_dim}, expected {expected}"
        )
    return fan


def _chain_fan(lattice: FlatLattice, allowed: int) -> Fan:
    """One weight-one row per chain of the flats in the bitset ``allowed``
    (proper flats of the lattice), on its masks, with them as provenance
    over the lattice's graph, laid out as the walk yields them, in cone
    order; the row check of the masks is the walked chain's one check."""
    rays, ids, masks = _chains_in_cone_order(lattice, allowed)
    fan, g, weights = Fan.__new__(Fan), lattice.graph, (1,) * len(masks)
    _check_rows(masks, weights, (1 << len(g.edges)) - 1)  # before the provenance, for the peak
    fan._lay_out(g.edges, g, rays, ids, masks, weights, tuple((k,) for k in masks))
    return fan


# ---------------------------------------------------------------------------
# Primitive normal vectors and balancing


def primitive_normal(sigma: Cone, tau: Cone) -> QuotientVector:
    """The primitive lattice normal of the codimension-one face tau in sigma:
    the ray of the edge set in sigma's chain that tau's chain lacks.

    Sigma's rays are a basis of the integer points of its span, so that ray
    generates the quotient of sigma's lattice by tau's and points into
    sigma.  The normal is a class modulo tau's lattice; the ray is one
    member of it."""
    if tau.ambient != sigma.ambient or not set(tau.masks) <= set(sigma.masks):
        raise ValueError("tau is not a face of sigma")
    if sigma.dim != tau.dim + 1:
        raise ValueError("tau must have codimension one in sigma")
    (mask,) = set(sigma.masks).difference(tau.masks)
    return _ray(sigma.ambient, mask)


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    failing_face: Optional[Cone] = None


def is_balanced(fan: Fan) -> BalanceReport:
    """Check the weighted balancing condition around every codimension-one face.

    For each face tau of dimension max_dim - 1, the weighted sum of primitive
    normals of the maximal cones containing tau must lie in tau's rational
    span.  The normal of sigma over tau is the ray of the edge set G that
    tau lacks, since sigma's rays are a basis of its lattice; every maximal
    cone is certified so by ``_is_unimodular`` before any face is tested,
    and a cone that fails raises RuntimeError.  The span test is a layer
    test: tau's span holds the sum exactly when the sum of weight times
    indicator of G over tau's star is constant on each layer of tau's chain
    (``_constant_on_layers``).  Faces are visited in the fan's cone order,
    so the first failing face is reported.  Exact arithmetic throughout.

    Everything but the weights is read off the fan's ``_BalancingIndex``,
    which the fan's reweighted copies share, as they share its masks
    column: the purity verdict, each face's star (how to pick the weights
    of the maximal rows over it, and the masks they add, indexed in one
    pass over the maximal cones on the column's first call), whether its
    maximal cones are certified, and a verdict per face and tuple of star
    weights, as the layer test depends on nothing else.  So each masks
    column builds its stars once, certifies its maximal cones in one loop
    on its first call and runs each (face, star weights) layer test once.
    The certified flag is set only after every maximal cone has passed,
    and before any verdict is looked up, so a failed certificate raises on
    every call and is never recorded.
    """
    index = fan._balancing
    if index.pure is None:
        index.pure = fan.is_pure
    if not index.pure:
        raise ValueError("balancing is only defined for pure fans")
    if fan.max_dim == 0:
        return BalanceReport(True)
    if index.stars is None:
        index.stars = _stars(fan)
    chains, weights, verdicts = fan._masks, fan._weights, index.verdicts
    if not index.certified:
        coords = fan._coords
        for s in fan._by_dim[fan.max_dim]:
            # the rays' canonical coordinates in their order; each ends in
            # 0, which the lattice test leaves out
            rays = sorted(coords[x] for x in chains[s])
            if not _is_unimodular([list(r[:-1]) for r in rays]):
                raise RuntimeError("a maximal cone's rays are not a basis of its lattice")
        index.certified = True
    full = (1 << len(fan.ambient)) - 1
    for t, pick, added in index.stars:
        key = (t, pick(weights))
        verdict = verdicts.get(key)
        if verdict is None:
            verdict = verdicts[key] = _constant_on_layers(chains[t], tuple(zip(added, key[1])), full)
        if not verdict:
            return BalanceReport(False, fan._cone(t))
    return BalanceReport(True)


class _BalancingIndex:
    """What ``is_balanced`` reads off one masks column, made empty by the
    row builder and shared by reference with the reweighted copies of the
    fan, whose masks are the same: the purity verdict (None until the
    first call), the stars (None until the first call on a pure fan with
    faces; see ``_stars``), whether every maximal cone is certified (False
    until a call certifies them all), and the layer test's verdict by
    (face row, star weights).  None of it depends on the weights but
    through that key, and nothing is evicted: the index lives as long as
    the column."""

    __slots__ = ("pure", "stars", "certified", "verdicts")

    def __init__(self):
        self.pure: Optional[bool] = None
        self.stars: Optional[tuple[tuple, ...]] = None
        self.certified = False
        self.verdicts: dict[tuple[int, tuple[int, ...]], bool] = {}


def _stars(fan: Fan) -> tuple[tuple, ...]:
    """Each codimension-one row t of the pure fan, in cone order, as (t,
    pick, added): a function from a weights column to the tuple of the
    weights of the maximal cones over it, and the masks they add to t, in
    the same order.  One pass over the maximal cones
    indexes them by facet, keyed by edge masks; in a pure fan closed under
    faces every face of codimension one is a facet of some maximal cone."""
    chains = fan._masks
    star: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for s in fan._by_dim[fan.max_dim]:
        masks = chains[s]
        for i, mask in enumerate(masks):
            star.setdefault(masks[:i] + masks[i + 1 :], []).append((s, mask))
    faces = []
    for t in fan._by_dim[fan.max_dim - 1]:
        rows, added = zip(*star[chains[t]])
        faces.append((t, _picker(rows), added))
    return tuple(faces)


def _picker(rows: tuple[int, ...]):
    """A function from a column to the tuple of its entries at ``rows``.
    ``itemgetter`` makes that tuple in C, but for a single row it returns
    the bare entry, so one row gets a function of its own."""
    if len(rows) > 1:
        return itemgetter(*rows)
    (s,) = rows
    return lambda column: (column[s],)


def lattice_balanced(lattice: FlatLattice) -> bool:
    """Whether the graph's Bergman fan, of weight one, is balanced, read off
    the rank-2 intervals of its lattice of flats without building a cone.

    A codimension-one face is a chain of proper flats with one rank-2 gap
    [A, B], A the empty flat or B the full one included, and its star's
    edge sets are the atoms of [A, B].  All of them hold A and lie in B, so
    ``_constant_on_layers`` on the chain (A, B) is that face's layer test,
    and faces with one gap share it.  In a lattice of flats the atoms'
    edges outside A partition B - A (Ardila-Klivans; Feichtner-Sturmfels),
    so every edge there lies in exactly one atom.  ``is_balanced`` is the
    weighted checker on a built fan; this reads the covers only."""
    masks = lattice.masks
    full = (1 << len(lattice.graph.edges)) - 1
    for a, b, atoms in lattice.rank2_intervals():
        gap = tuple(m for m in (masks[a], masks[b]) if 0 < m < full)
        if not _constant_on_layers(gap, [(masks[c], 1) for c in atoms], full):
            return False
    return True


def _constant_on_layers(
    chain: tuple[int, ...], star: Sequence[tuple[int, int]], full: int
) -> bool:
    """Whether the sum of weight times indicator over the (edge mask,
    weight) pairs of ``star`` is constant on each layer of the chain of
    edge masks F_1 < ... < F_k inside ``full``: on F_1, F_2 - F_1, ...,
    full - F_k (on all of ``full`` for the empty chain).

    The ray of G is the class of -1_G, and the span of the rays of the
    chain plus the all-ones line is the set of vectors constant on each
    layer (Ardila-Klivans; Feichtner-Sturmfels), so this is the span test
    of the weighted sum of the rays of ``star``."""
    # planes[k] is the set of edges whose sum has bit k set: one binary
    # counter for every edge at once, added to by bitwise carries; no sum
    # exceeds the total weight, so no carry leaves the top plane
    planes = [0] * sum(w for _, w in star).bit_length()
    for mask, weight in star:
        for k in range(weight.bit_length()):
            if not weight >> k & 1:
                continue
            carry, j = mask, k
            while carry:
                planes[j], carry = planes[j] ^ carry, planes[j] & carry
                j += 1
    # the sums agree on a layer when each plane holds all of it or none
    below = 0
    for upper in chain + (full,):
        layer = upper & ~below
        for plane in planes:
            if plane & layer and plane & layer != layer:
                return False
        below = upper
    return True


def _is_unimodular(rows: list[list[int]]) -> bool:
    """Whether ``saturation`` hands the (nonempty, independent) integer rows
    back unchanged: they are then a basis of the integer points of their
    span.  Rows on which its unit pivots run out are refused, so the answer
    is sound on all rows, and complete on rows that unit pivots reduce, as
    every chain's rays are."""
    try:
        return ila.saturation(rows) == rows
    except ValueError:
        return False


# ---------------------------------------------------------------------------
# Projection and structural equality


def project_vector(v: QuotientVector, gamma: Graph) -> QuotientVector:
    """Forget the coordinates of edges not in gamma and re-canonicalize."""
    keep = [i for i, e in enumerate(v.ambient) if e in gamma.edge_index]
    return QuotientVector.from_raw(gamma.edges, [v.coords[i] for i in keep])


def project_fan(fan: Fan, gamma: Graph) -> Fan:
    """Image of a fan in the complete-graph edge space under edge deletion.

    Forgetting the other edges sends the ray of an edge set F to the ray of
    its trace F & E(gamma), or to zero when the trace is empty or all of
    gamma's edges; each image cone is the chain of its rays' nonzero
    traces.  Coinciding images are merged: each image cone keeps every
    source cone's provenance as its fiber and carries weight one.
    """
    complete_edges = tuple(combinations(gamma.labels, 2))
    if fan.ambient != complete_edges:
        raise ValueError(
            "fan ambient must be the complete graph on the target graph's labels"
        )
    # gamma's edges keep their order among the complete graph's; each ray's
    # trace is kept if it is not empty or full, that is if its image is not 0
    positions = [i for i, e in enumerate(fan.ambient) if e in gamma.edge_index]
    full = (1 << len(positions)) - 1
    trace = {}
    for x in fan._coords:
        t = sum(1 << j for j, i in enumerate(positions) if x >> i & 1)
        if 0 < t < full:
            trace[x] = t
    # the traces of nested sets are nested, so a cone's image is read off
    # its ascending masks in order, skipping absent traces and repeats
    merged: dict[tuple[int, ...], list] = {}
    for masks, provenance in zip(fan._masks, fan._provenance):
        image = []
        for x in masks:
            t = trace.get(x)
            if t is not None and (not image or image[-1] != t):
                image.append(t)
        merged.setdefault(tuple(image), []).extend(provenance)
    return Fan._from_rows(gamma.edges, ((k, 1, tuple(f)) for k, f in merged.items()), fan._source)


def fans_equal(a: Fan, b: Fan) -> bool:
    """Structural equality: same ambient, same chains of edge masks, and
    matching weights on maximal cones.  Rays of edge sets are primitive, so
    equal cones have equal rays."""
    if a.ambient != b.ambient:
        return False
    # a set of chains has one cone order, so equal sets are equal columns
    maximal = a._maximal
    b._maximal  # refuses a fan that is not closed under faces, as a's does
    return a._masks == b._masks and all(a._weights[i] == b._weights[i] for i in maximal)


# Serialization

SCHEMA = 1  # version of every JSON document the CLI writes

_INDENT = "  "  # json.dumps(indent=2)


def edge_str(e: Edge) -> str:
    return f"{e[0]}-{e[1]}"


def json_scalar(x) -> str:
    """An int, bool or str as ``json.dumps`` writes it.

    Anything else raises TypeError, as ``json.dumps`` does for a Fraction;
    floats never occur in these exact documents and are refused too."""
    if x is True or x is False:
        return "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def json_array(items: Sequence[str], depth: int = 0) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(indent=2)``
    lays it out at nesting depth ``depth``."""
    if not items:
        return "[]"
    inner = "\n" + _INDENT * (depth + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + _INDENT * depth + "]"


def fan_json_chunks(fan: Fan, depth: int = 0, **fields) -> Iterator[str]:
    """A fan's JSON document as string chunks in document order, whose
    concatenation is ``json.dumps(doc, indent=2)`` of the document at
    nesting depth ``depth``; neither ``doc`` nor the whole text is built.
    The chunks are the header (schema, ambient edges, rays and the opening
    of the cone list), one chunk per cone (its ray ids, weight and
    provenance chains, one list of chains per cone fiber), and the closing
    text with the scalar ``fields`` appended.

    The fields are encoded on the call, so whatever ``json.dumps`` refuses,
    such as a Fraction field value, raises TypeError before any chunk is
    made.  The chunks are read off the fan's rows.  Each cone's chunk is
    one concatenation of pieces prepared beforehand: the opening and
    closing text of its rays and provenance blocks, one string per ray id
    (its ids are the fan's own, ``Fan._ray_ids``) and one per weight value.
    Each flat's block of edge strings is encoded once per call: a projected
    fan's provenance repeats a few hundred flats tens of thousands of
    times.
    """
    # nl[k] starts a line at nesting depth + k; sep[k] ends an item before it
    nl = ["\n" + _INDENT * (depth + k) for k in range(7)]
    sep = ["," + s for s in nl]
    tail = "".join(sep[1] + json_scalar(k) + ": " + json_scalar(v) for k, v in fields.items())

    def block(items: Sequence[str], k: int) -> str:
        """json_array(items, depth + k) from the precomputed separators."""
        return "[" + nl[k + 1] + sep[k + 1].join(items) + nl[k] + "]" if items else "[]"

    source = [] if fan._source is None else [json_scalar(edge_str(e)) for e in fan._source.edges]
    flat_text: dict[int, str] = {}  # each flat's block of source edge strings, by mask

    def chain_block(chain: tuple[int, ...]) -> str:
        blocks = []
        for x in chain:
            text = flat_text.get(x)
            if text is None:
                text = flat_text[x] = block(list(map(source.__getitem__, _positions(x))), 5)
            blocks.append(text)
        return block(blocks, 4)

    def chunks() -> Iterator[str]:
        yield (
            "{" + nl[1] + '"schema": ' + json_scalar(SCHEMA)
            + sep[1] + '"ambient": ' + block([json_scalar(edge_str(e)) for e in fan.ambient], 1)
            + sep[1] + '"rays": '
            + block([block(list(map(json_scalar, r)), 2) for r in fan._coords.values()], 1)
            + sep[1] + '"cones": ['
        )
        # a cone is {"rays": [ids], "weight": w, "provenance": [chains]};
        # ray ids and chains are both items at depth + 4
        item = sep[4]
        open_rays, close_rays = "{" + nl[3] + '"rays": [' + nl[4], nl[3] + "]"
        no_rays = "{" + nl[3] + '"rays": []'
        open_chains, close_chains = "[" + nl[4], nl[3] + "]" + nl[2] + "}"
        no_chains = "[]" + nl[2] + "}"
        weight_text = {
            w: sep[3] + '"weight": ' + json_scalar(w) + sep[3] + '"provenance": '
            for w in set(fan._weights)
        }
        # the fan's rays are its ray coordinates' keys, in their order
        name = [str(i) for i in range(len(fan._coords))].__getitem__
        lead = nl[2]  # a fan always holds the cone with no rays
        for ids, weight, chains in zip(fan._ray_ids, fan._weights, fan._provenance):
            yield (
                lead
                + (open_rays + item.join(map(name, ids)) + close_rays if ids else no_rays)
                + weight_text[weight]
                + (open_chains + item.join(map(chain_block, chains)) + close_chains
                   if chains else no_chains)
            )
            lead = sep[2]
        yield nl[1] + "]" + tail + nl[0] + "}"

    return chunks()
