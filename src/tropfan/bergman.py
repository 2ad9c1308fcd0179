"""Bergman fans in the chains-of-flats subdivision, as weighted integral fans.

Vectors live in the quotient of edge space by the all-ones line; the canonical
representative of a class is the one whose last coordinate vanishes, which
makes equality a plain tuple comparison and identifies the quotient lattice
with the integer vectors supported on the remaining coordinates.

Arithmetic is exact, never floating point.  A vector's coordinates are ints
or Fractions (psi of a metric curve is rational), but a cone's rays are the
rays of edge sets.  The ray of a set F is the class of minus its indicator
vector: its canonical representative is -1 on F when F misses the last edge
and 1 off F when F holds it, so ``QuotientVector.edge_mask`` reads F back.
Every cone of a chain of flats, and of its projection onto a subgraph's
edges, is spanned by the rays of strictly nested nonempty proper edge sets,
and a ``Cone`` refuses any other rays.

The chains-of-flats subdivision is unimodular (Ardila-Klivans;
Feichtner-Sturmfels): the canonical rays of a chain are signed indicators
of a laminar family of edge sets (the sets missing the last edge and the
complements of those holding it), so their matrix is totally unimodular and
the rays are a basis of the lattice points of their span.  The primitive
normal of a facet is therefore the remaining ray, modulo the facet's
lattice, and rays are primitive, so fans are equal when their ray sets and
maximal weights are.  Balancing certifies each maximal cone once, by
``intlinalg.saturation`` handing its rays back unchanged, and indexes the
maximal cones by their facets' edge masks (``Cone.masks``), so each
codimension-one face visits only its own star.  Its span test needs no
linear algebra: a vector lies in the span of a chain's rays plus the
all-ones line exactly when it is constant on each layer F_1, F_2 - F_1,
..., E - F_k of the chain, so balancing adds the star's edge sets, weighted,
on edge masks and compares the sums within each layer.  The certificate is
its one integer elimination left; the benchmark's gate still counts the
``saturation`` calls it makes.

Fans are written as JSON by ``fan_json_text``.
"""

from __future__ import annotations

import math
from copy import copy
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations
from json.encoder import encode_basestring_ascii
from typing import Iterable, Optional, Sequence

from . import intlinalg as ila
from .graphs import Edge, Graph
from .matroid import ChainOfFlats, Flat, _chain_walk, graph_rank, proper_flats


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

    @classmethod
    def zero(cls, ambient: Sequence[Edge]) -> "QuotientVector":
        return cls(tuple(ambient), (0,) * len(ambient))

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def __add__(self, other: "QuotientVector") -> "QuotientVector":
        self._check(other)
        return QuotientVector(
            self.ambient, tuple(_num(a + b) for a, b in zip(self.coords, other.coords))
        )

    def __sub__(self, other: "QuotientVector") -> "QuotientVector":
        self._check(other)
        return QuotientVector(
            self.ambient, tuple(_num(a - b) for a, b in zip(self.coords, other.coords))
        )

    def __neg__(self) -> "QuotientVector":
        return QuotientVector(self.ambient, tuple(_num(-c) for c in self.coords))

    def scale(self, factor) -> "QuotientVector":
        return QuotientVector(self.ambient, tuple(_num(factor * c) for c in self.coords))

    @cached_property
    def edge_mask(self) -> int:
        """The nonempty proper edge set whose ray this vector is, as a bit
        mask over ``ambient``: its -1 coordinates when all are 0 or -1, and
        its 0 coordinates when all are 0 or 1.

        Any other vector is the ray of no such set and raises ValueError:
        the zero vector, a multiple of a ray, a vector of mixed signs or one
        with a Fraction coordinate.  ``Cone`` asks each ray once, and the
        mask is cached on the ray."""
        if Fraction in map(type, self.coords):
            raise ValueError("cone rays must be integral vectors, with int coordinates")
        support = sum(1 << i for i, c in enumerate(self.coords) if c)
        values = set(self.coords)
        values.discard(0)
        if values == {-1}:
            return support
        if values == {1}:
            return ((1 << len(self.coords)) - 1) ^ support
        raise ValueError(
            "cone rays must be rays of nonempty proper edge sets, "
            "with coordinates all in {0, -1} or all in {0, 1}"
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


@dataclass(frozen=True)
class Cone:
    """A cone spanned by the rays of a chain of edge sets, with weight and
    origin.

    Each ray must be the ray of a nonempty proper edge set (its
    ``edge_mask``), and the sets must be strictly nested; both are checked
    when the cone is built, with the weight.  Such rays are independent, so
    the cone is simplicial."""

    rays: tuple[QuotientVector, ...]
    weight: int = 1
    provenance: tuple[ChainOfFlats, ...] = field(default=(), compare=False)

    def __post_init__(self):
        if type(self.weight) is not int or self.weight < 1:
            raise ValueError(f"cone weights are positive integers, got {self.weight!r}")
        # a strict subset is a smaller int, so a chain sorts into its order;
        # it starts above the empty set, which no ray's mask is
        below = 0
        for mask in self.masks:
            if below | mask != mask or below == mask:
                raise ValueError("cone rays must be the rays of strictly nested edge sets")
            below = mask

    @property
    def dim(self) -> int:
        return len(self.rays)

    @cached_property
    def rayset(self) -> frozenset:
        return frozenset(self.rays)

    @property
    def masks(self) -> tuple[int, ...]:
        """The rays' edge sets as bit masks, smallest first: the chain the
        cone is spanned by.  Over one ambient edge list they name the rays,
        so a fan keys its faces and stars by them.  Not cached here: a fan
        that asks keeps one tuple of them for all its cones, and a fan that
        never asks holds none."""
        return tuple(sorted([r.edge_mask for r in self.rays]))


def make_cone(
    rays: Iterable[QuotientVector],
    weight: int = 1,
    provenance: tuple[ChainOfFlats, ...] = (),
) -> Cone:
    return Cone(tuple(sorted(set(rays), key=lambda r: r.coords)), weight, provenance)


class Fan:
    """A weighted polyhedral fan given by its (simplicial) cones.

    Every ray lies over the fan's ambient edge list (a cone over another is
    refused with ValueError), each ray set is given at most once (a second
    cone on it is refused, as no chain of flats yields one; ``project_fan``
    merges its fibers before building the image), and the cone with no rays
    is always present.
    The cones must be closed under faces: ``maximal_cones`` (and so
    ``is_pure``, ``is_balanced``, ``fans_equal`` and ``with_weights``)
    refuses a fan that is not with ValueError.
    Orderings are canonical everywhere so that repeated construction is
    byte-stable.
    """

    def __init__(self, ambient: Sequence[Edge], cones: Iterable[Cone]):
        self.ambient = ambient = tuple(ambient)
        by_rayset: dict[frozenset, Cone] = {}
        for cone in cones:
            # every library fan shares its rays' ambient tuple; a cone's
            # edge masks name its rays only over this one edge list
            for r in cone.rays:
                if r.ambient is not ambient and r.ambient != ambient:
                    raise ValueError("a cone's rays lie over another ambient edge list")
            if cone.rayset in by_rayset:
                raise ValueError("conflicting cones: a ray set is given twice")
            by_rayset[cone.rayset] = cone
        if frozenset() not in by_rayset:
            by_rayset[frozenset()] = make_cone(())
        self._by_rayset = by_rayset
        self.cones: tuple[Cone, ...] = tuple(
            sorted(by_rayset.values(), key=lambda c: (c.dim, [r.coords for r in c.rays]))
        )
        self.max_dim = self.cones[-1].dim
        # the cones of dimension d are cones[by_dim[d]]
        counts = [0] * (self.max_dim + 2)
        for c in self.cones:
            counts[c.dim + 1] += 1
        starts = list(accumulate(counts))
        self._by_dim = [slice(a, b) for a, b in zip(starts, starts[1:])]

    @cached_property
    def rays(self) -> tuple[QuotientVector, ...]:
        return tuple(c.rays[0] for c in self.cones_of_dim(1))

    def cones_of_dim(self, d: int) -> tuple[Cone, ...]:
        return self.cones[self._by_dim[d]] if 0 <= d <= self.max_dim else ()

    @cached_property
    def _masks(self) -> tuple[tuple[int, ...], ...]:
        """Each cone's ``masks``, in cone order: one tuple per cone, kept by
        the fan rather than on the cone, whose instance dict would grow."""
        return tuple(c.masks for c in self.cones)

    @cached_property
    def maximal_cones(self) -> tuple[Cone, ...]:
        # in a fan closed under taking ray subsets, non-maximal cones are
        # exactly the facets of some other cone.  Closure is checked here,
        # not when the fan is built, where it would cost every fan.
        facets = set()
        for masks in self._masks:
            for i in range(len(masks)):
                facets.add(masks[:i] + masks[i + 1 :])
        if not facets <= set(self._masks):
            raise ValueError("the fan is not closed under faces")
        return tuple(c for c, masks in zip(self.cones, self._masks) if masks not in facets)

    @property
    def is_pure(self) -> bool:
        return all(c.dim == self.max_dim for c in self.maximal_cones)

    def cone_with_rayset(self, rayset: frozenset) -> Optional[Cone]:
        return self._by_rayset.get(rayset)

    def with_weights(self, overrides: dict[frozenset, int]) -> "Fan":
        """The fan with some weights replaced; other cones are shared.  A ray
        set that is not a cone of this fan is refused with ValueError.

        The ray sets are this fan's, so its cone order, its index by
        dimension, its edge masks and its maximal cones carry over, with the
        reweighted cones in their places, and are not sorted or checked
        again."""
        if not self._by_rayset.keys() >= overrides.keys():
            raise ValueError("with_weights names a ray set that is not a cone of this fan")
        new = {rs: replace(self._by_rayset[rs], weight=w) for rs, w in overrides.items()}

        def swap(cones: Iterable[Cone]) -> tuple[Cone, ...]:
            return tuple(new.get(c.rayset, c) for c in cones)

        fan = copy(self)
        fan.__dict__["maximal_cones"] = swap(self.maximal_cones)
        fan.cones = swap(self.cones)
        fan._by_rayset = {**self._by_rayset, **new}
        return fan

    def census(self) -> tuple[int, ...]:
        """Cone counts by dimension 0..max_dim."""
        return tuple(len(self.cones_of_dim(d)) for d in range(self.max_dim + 1))


def bergman_fan(g: Graph) -> Fan:
    """The fan whose cones are spanned by rays of chains of proper nonempty
    flats, all weights one; its dimension is rank(g) - 1."""
    fan = _chain_fan(g, proper_flats(g))
    expected = max(graph_rank(g, g.full_edge_set()) - 1, 0)
    if fan.max_dim != expected:
        raise RuntimeError(
            f"Bergman fan has dimension {fan.max_dim}, expected {expected}"
        )
    return fan


def _chain_fan(g: Graph, flats: Sequence[Flat]) -> Fan:
    """One weight-one cone per chain of ``flats`` (proper flats of g in
    canonical order), with the chain as provenance."""
    ray_of = {f.mask: ray_of_flat(f, g.edges) for f in flats}
    cones = [
        make_cone([ray_of[f.mask] for f in chain], weight=1, provenance=(chain,))
        for chain in _chain_walk(flats)
    ]
    return Fan(g.edges, cones)


# ---------------------------------------------------------------------------
# Primitive normal vectors and balancing


def primitive_normal(sigma: Cone, tau: Cone) -> QuotientVector:
    """The primitive lattice normal of the codimension-one face tau in sigma:
    the ray of sigma that tau lacks.

    Sigma's rays are a basis of the integer points of its span, so that ray
    generates the quotient of sigma's lattice by tau's and points into
    sigma.  The normal is a class modulo tau's lattice; the ray is one
    member of it."""
    if not tau.rayset <= sigma.rayset:
        raise ValueError("tau is not a face of sigma")
    if sigma.dim != tau.dim + 1:
        raise ValueError("tau must have codimension one in sigma")
    (ray,) = sigma.rayset - tau.rayset
    return ray


@dataclass(frozen=True)
class BalanceReport:
    balanced: bool
    failing_face: Optional[Cone] = None


def is_balanced(fan: Fan) -> BalanceReport:
    """Check the weighted balancing condition around every codimension-one face.

    For each face tau of dimension max_dim - 1, the weighted sum of primitive
    normals of the maximal cones containing tau must lie in tau's rational
    span.  One pass over the maximal cones indexes them by facet, keyed by
    edge masks, so each face sums over its own star only.  The normal of
    sigma over tau is the ray of the edge set G that tau lacks, since
    sigma's rays are a basis of its lattice; each maximal cone is certified
    so by ``_is_unimodular`` once, when a face first reaches it, and a cone
    that fails raises RuntimeError.  The span test is a layer test: tau's
    span holds the sum exactly when the sum of weight times indicator of G
    over tau's star is constant on each layer of tau's chain
    (``_constant_on_layers``).  Faces are visited in the fan's cone order,
    so the first failing face is reported.  Exact arithmetic throughout.
    """
    if not fan.is_pure:
        raise ValueError("balancing is only defined for pure fans")
    if fan.max_dim == 0:
        return BalanceReport(True)
    top, codim1 = fan._by_dim[fan.max_dim], fan._by_dim[fan.max_dim - 1]
    star: dict[tuple[int, ...], list[tuple[Cone, int]]] = {}
    for sigma, masks in zip(fan.cones[top], fan._masks[top]):
        for i, mask in enumerate(masks):
            star.setdefault(masks[:i] + masks[i + 1 :], []).append((sigma, mask))
    full = (1 << len(fan.ambient)) - 1
    certified: set[int] = set()  # ids of the maximal cones
    for tau, chain in zip(fan.cones[codim1], fan._masks[codim1]):
        members = star.get(chain, ())
        for sigma, _ in members:
            if id(sigma) not in certified:
                # canonical reps end in 0, which the lattice test leaves out
                if not _is_unimodular([list(r.coords[:-1]) for r in sigma.rays]):
                    raise RuntimeError("a maximal cone's rays are not a basis of its lattice")
                certified.add(id(sigma))
        if not _constant_on_layers(chain, [(g, s.weight) for s, g in members], full):
            return BalanceReport(False, tau)
    return BalanceReport(True)


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
    back unchanged, as it does when the echelon kernel pivots on units only:
    they are then a basis of the integer points of their span."""
    return ila.saturation(rows, len(rows[0])) == rows


# ---------------------------------------------------------------------------
# Projection and structural equality


def project_vector(v: QuotientVector, gamma: Graph) -> QuotientVector:
    """Forget the coordinates of edges not in gamma and re-canonicalize."""
    keep = [i for i, e in enumerate(v.ambient) if e in gamma.edge_index]
    return QuotientVector.from_raw(gamma.edges, [v.coords[i] for i in keep])


def project_fan(fan: Fan, gamma: Graph) -> Fan:
    """Image of a fan in the complete-graph edge space under edge deletion.

    Rays that project to zero are dropped and coinciding images are merged;
    each image cone keeps every source cone's provenance as its fiber and
    carries weight one; building each image cone checks its rays once.
    """
    complete_edges = tuple(combinations(gamma.labels, 2))
    if fan.ambient != complete_edges:
        raise ValueError(
            "fan ambient must be the complete graph on the target graph's labels"
        )
    merged: dict[frozenset, tuple[list[QuotientVector], list]] = {}
    image_of: dict[QuotientVector, QuotientVector] = {}  # each ray's, computed once
    for cone in fan.cones:
        image = []
        for ray in cone.rays:
            p = image_of.get(ray)
            if p is None:
                p = image_of[ray] = project_vector(ray, gamma)
            if not p.is_zero and p not in image:
                image.append(p)
        key = frozenset(image)
        slot = merged.setdefault(key, (image, []))
        slot[1].extend(cone.provenance)
    cones = [
        make_cone(rays, weight=1, provenance=tuple(fibers))
        for rays, fibers in merged.values()
    ]
    return Fan(gamma.edges, cones)


def fans_equal(a: Fan, b: Fan) -> bool:
    """Structural equality: same ambient, same cone ray sets, and matching
    weights on maximal cones.  Rays of edge sets are primitive, so equal
    cones have equal rays."""
    if a.ambient != b.ambient:
        return False

    def shape(fan: Fan) -> dict:
        maximal = {c.rayset for c in fan.maximal_cones}
        return {c.rayset: c.weight if c.rayset in maximal else None for c in fan.cones}

    return shape(a) == shape(b)


# ---------------------------------------------------------------------------
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


def json_object(members: Sequence[tuple[str, str]], depth: int = 0) -> str:
    """A JSON object of (key, encoded value) members, laid out as
    ``json.dumps(indent=2)`` lays it out at nesting depth ``depth``."""
    if not members:
        return "{}"
    inner = "\n" + _INDENT * (depth + 1)
    return (
        "{"
        + inner
        + ("," + inner).join(f"{json_scalar(k)}: {v}" for k, v in members)
        + "\n"
        + _INDENT * depth
        + "}"
    )


def fan_json_text(fan: Fan, depth: int = 0, **fields) -> str:
    """A fan's JSON document, laid out as ``json.dumps(doc, indent=2)`` lays
    it out at nesting depth ``depth``, without building ``doc``: its schema,
    ambient edges, rays, then its cones by ray indices with weights and
    provenance chains (one list of chains per cone fiber), and the scalar
    ``fields`` appended.

    Cones are joined from precomputed separators, and each flat's block of
    edge strings is encoded once per call: a projected fan's provenance
    repeats a few hundred flats tens of thousands of times.  Whatever
    ``json.dumps`` refuses, such as a Fraction field value, raises TypeError.
    """
    # Rays and flats are looked up by id, which hashes far faster than their
    # dataclass fields; the fan holds every object for the whole call, and
    # equal but distinct objects only cost a second, identical encoding.
    ray_of_id = {id(r): r for c in fan.cones for r in c.rays}
    rays = sorted(set(ray_of_id.values()), key=lambda r: r.coords)
    index = {r: i for i, r in enumerate(rays)}
    index_of_id = {k: index[r] for k, r in ray_of_id.items()}
    # nl[k] starts a line at nesting depth + k; sep[k] ends an item before it
    nl = ["\n" + _INDENT * (depth + k) for k in range(7)]
    sep = ["," + s for s in nl]

    def block(items: Sequence[str], k: int) -> str:
        """json_array(items, depth + k) from the precomputed separators."""
        return "[" + nl[k + 1] + sep[k + 1].join(items) + nl[k] + "]" if items else "[]"

    flat_text: dict[int, str] = {}

    def chain_block(chain: ChainOfFlats) -> str:
        blocks = []
        for f in chain.flats:
            text = flat_text.get(id(f))
            if text is None:
                edges = [json_scalar(edge_str(e)) for e in f.edges.edges]
                text = flat_text[id(f)] = block(edges, 5)
            blocks.append(text)
        return block(blocks, 4)

    cones = []
    for c in fan.cones:
        ids = sorted(index_of_id[id(r)] for r in c.rays)
        cones.append(
            "{" + nl[3] + '"rays": ' + block(list(map(str, ids)), 3)
            + sep[3] + '"weight": ' + json_scalar(c.weight)
            + sep[3] + '"provenance": ' + block(list(map(chain_block, c.provenance)), 3)
            + nl[2] + "}"
        )
    members = [
        ("schema", json_scalar(SCHEMA)),
        ("ambient", block([json_scalar(edge_str(e)) for e in fan.ambient], 1)),
        ("rays", block([block(list(map(json_scalar, r.coords)), 2) for r in rays], 1)),
        ("cones", block(cones, 1)),
    ]
    members += [(key, json_scalar(value)) for key, value in fields.items()]
    return json_object(members, depth)
