"""Cycle matroids: rank, closure, flats, chains of flats, and axiom verifiers.

Flats of the cycle matroid of a complete graph are cluster graphs (disjoint
unions of cliques), so flat enumeration walks set partitions of the label set
and restricts to the graph at hand.  A ``Flat`` derives its blocks from its
edge set and refuses a set that is not closed.  The axiom verifiers
exhaustively check a presented set system against one of the five axiom
families (independence, bases, two rank systems, closure, circuits) and
report the first counterexample in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .graphs import EdgeSet, Graph, _cluster_mask, components, graph_rank, is_acyclic


# ---------------------------------------------------------------------------
# Flats and chains


@dataclass(frozen=True)
class Flat:
    """A closed edge set of a graph's cycle matroid (a set that is not is
    refused with ValueError).  ``blocks``, the vertex sets of its components,
    is derived here; equality and hashing read the edge set only."""

    edges: EdgeSet
    blocks: tuple[tuple[int, ...], ...] = field(init=False, compare=False)

    def __post_init__(self):
        g = self.edges.graph
        blocks = tuple(components(g, self.edges))
        if _cluster_mask(g, blocks) != self.edges.mask:
            raise ValueError("a flat must be a closed edge set")
        object.__setattr__(self, "blocks", blocks)

    @property
    def graph(self) -> Graph:
        return self.edges.graph

    @cached_property
    def rank(self) -> int:
        # the chain walk's successor test asks for it once per pair of flats
        return sum(len(b) - 1 for b in self.blocks)

    @property
    def mask(self) -> int:
        return self.edges.mask

    def sort_key(self) -> tuple:
        return (self.rank, self.edges.edges)


@dataclass(frozen=True)
class ChainOfFlats:
    """A strictly increasing chain of proper nonempty flats of one matroid.
    Ranks rise along it: an edge of G outside F < G joins two blocks of F,
    or it would lie in F's closure, which is F."""

    flats: tuple[Flat, ...]

    def __post_init__(self):
        # one pass reads each flat's edge set once; a bad flat is reported
        # before the first bad pair, which waits for the end of the pass
        pair_error = None
        below = None
        for f in self.flats:
            edges = f.edges
            g, mask = edges.graph, edges.mask
            if not 0 < mask < (1 << len(g.edges)) - 1:
                raise ValueError("chain flats must be proper and nonempty")
            if below is not None and pair_error is None:
                if below.graph is not g and below.graph != g:
                    pair_error = "chain flats must share a parent graph"
                elif below.mask & ~mask or below.mask == mask:
                    pair_error = "chain must strictly increase"
            below = edges
        if pair_error is not None:
            raise ValueError(pair_error)

    def __len__(self) -> int:
        return len(self.flats)

    def __iter__(self) -> Iterator[Flat]:
        return iter(self.flats)

    def __getitem__(self, i):
        return self.flats[i]

    @property
    def graph(self) -> Graph:
        return self.flats[0].graph


def closure(g: Graph, s: EdgeSet) -> Flat:
    """Complete each connected component, then restrict to the graph's edges."""
    if s.graph != g:
        raise ValueError("edge set does not belong to this graph")
    return Flat(EdgeSet(g, _cluster_mask(g, components(g, s))))


def set_partitions(items: Sequence[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
    """All partitions of ``items`` into nonempty blocks (Bell-number many)."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield ((first,),) + part
        for i, block in enumerate(part):
            yield part[:i] + (tuple(sorted((first,) + block)),) + part[i + 1 :]


MAX_FLAT_VERTICES = 10


def enumerate_flats(g: Graph) -> list[Flat]:
    """All flats of the cycle matroid, sorted by (rank, edge order).

    Each vertex partition induces a cluster graph on the ambient complete
    graph; its restriction to ``g`` is a flat, and all flats arise this way.
    """
    if g.num_vertices > MAX_FLAT_VERTICES:
        raise ValueError(f"flat enumeration capped at {MAX_FLAT_VERTICES} vertices")
    seen: dict[int, Flat] = {}
    for part in set_partitions(g.labels):
        mask = _cluster_mask(g, part)
        if mask not in seen:
            seen[mask] = Flat(EdgeSet(g, mask))
    return sorted(seen.values(), key=Flat.sort_key)


def proper_flats(g: Graph) -> list[Flat]:
    """Nonempty flats other than the full edge set, in canonical order."""
    full = g.full_edge_set().mask
    return [f for f in enumerate_flats(g) if f.mask not in (0, full)]


def flats_lattice(g: Graph) -> tuple[list[Flat], list[tuple[int, int]]]:
    """The flats in ``enumerate_flats`` order and the covering pairs (child,
    parent) of their lattice as indices into that list, by child and then
    by parent.

    Adding an edge outside a flat and closing merges the two blocks (the
    components, or isolated vertices) that it joins, and every cover arises
    so: the parent is the flat plus the clique on the merged block.
    """
    flats = enumerate_flats(g)
    index = {f.mask: i for i, f in enumerate(flats)}
    covers = []
    for c, child in enumerate(flats):
        block_of = {v: block for block in child.blocks for v in block}
        merged = {
            tuple(sorted(block_of.get(a, (a,)) + block_of.get(b, (b,))))
            for i, (a, b) in enumerate(g.edges)
            if not child.mask >> i & 1
        }
        parents = sorted(index[child.mask | _cluster_mask(g, [m])] for m in merged)
        covers.extend((c, p) for p in parents)
    return flats, covers


def all_chains(g: Graph) -> Iterator[ChainOfFlats]:
    """Every strictly increasing chain of proper nonempty flats, the empty
    chain included, in canonical (lexicographic on flat order) order."""
    yield from _chain_walk(proper_flats(g))


def _chain_walk(flats: Sequence[Flat]) -> Iterator[ChainOfFlats]:
    """Every strictly increasing chain drawn from ``flats`` (proper flats of
    one graph, in canonical order), the empty chain first, lexicographic on
    that order.  On a subset of ``proper_flats`` this is the subsequence of
    ``all_chains`` whose flats all lie in the subset."""
    succ = [
        [j for j, b in enumerate(flats) if a.rank < b.rank and a.mask & ~b.mask == 0]
        for a in flats
    ]

    def extend(prefix: list[int], start_choices: Iterable[int]) -> Iterator[list[int]]:
        for j in start_choices:
            chain = prefix + [j]
            yield chain
            yield from extend(chain, succ[j])

    yield ChainOfFlats(())
    for idxs in extend([], range(len(flats))):
        yield ChainOfFlats(tuple(flats[i] for i in idxs))


# ---------------------------------------------------------------------------
# Cycle-matroid presentations, for feeding the axiom verifiers


def independent_sets(g: Graph) -> list[frozenset]:
    return [
        frozenset(EdgeSet(g, m).edges)
        for m in range(1 << len(g.edges))
        if is_acyclic(g, EdgeSet(g, m))
    ]


def bases(g: Graph) -> list[frozenset]:
    r = graph_rank(g, g.full_edge_set())
    return [s for s in independent_sets(g) if len(s) == r]


def circuits(g: Graph) -> list[frozenset]:
    """Minimal dependent sets, in edge-mask order: the dependent sets all of
    whose one-edge deletions are forests."""
    acyclic = [is_acyclic(g, EdgeSet(g, m)) for m in range(1 << len(g.edges))]
    return [
        frozenset(EdgeSet(g, m).edges)
        for m, forest in enumerate(acyclic)
        if not forest and all(acyclic[m & ~b] for b in _bits(m))
    ]


def rank_table(g: Graph) -> dict[frozenset, int]:
    return {
        frozenset(EdgeSet(g, m).edges): graph_rank(g, EdgeSet(g, m))
        for m in range(1 << len(g.edges))
    }


def closure_table(g: Graph) -> dict[frozenset, frozenset]:
    return {
        frozenset(EdgeSet(g, m).edges): frozenset(closure(g, EdgeSet(g, m)).edges.edges)
        for m in range(1 << len(g.edges))
    }


# ---------------------------------------------------------------------------
# Axiom verifiers


@dataclass(frozen=True)
class SetSystem:
    """A presented set system on an explicit ground set.

    ``members`` is read as independent sets, bases, or circuits depending on
    the verifier invoked; ``rank`` and ``closure`` are total tables on the
    powerset for the rank and closure verifiers.
    """

    ground: tuple
    members: Optional[tuple[frozenset, ...]] = None
    rank: Optional[Mapping[frozenset, int]] = None
    closure: Optional[Mapping[frozenset, frozenset]] = None

    @cached_property
    def element_index(self) -> dict:
        return {x: i for i, x in enumerate(self.ground)}

    def to_mask(self, subset: Iterable) -> int:
        mask = 0
        for x in subset:
            mask |= 1 << self.element_index[x]
        return mask

    def from_mask(self, mask: int) -> tuple:
        return tuple(x for i, x in enumerate(self.ground) if mask >> i & 1)


@dataclass(frozen=True)
class AxiomReport:
    family: str
    holds: bool
    counterexample: Optional[tuple] = None


MAX_AXIOM_GROUND = 8

_FAMILIES = ("I", "B", "R", "R'", "S", "C")


def verify_matroid_axioms(
    sys: SetSystem, which: str, max_ground: int = MAX_AXIOM_GROUND
) -> AxiomReport:
    """Exhaustively check one axiom family against a presented set system.

    ``which`` selects the family: "I" (independence I1-I3), "B" (base exchange
    B1), "R" (local rank axioms R1-R3), "R'" (global rank axioms R1'-R3'),
    "S" (closure axioms S1-S4), "C" (circuit axioms C1-C2).  Counterexamples
    name the violated axiom and quote the offending subsets, first in the
    canonical (bitmask) order.
    """
    if which not in _FAMILIES:
        raise ValueError(f"unknown axiom family {which!r}; expected one of {_FAMILIES}")
    n = len(sys.ground)
    if n > max_ground:
        raise ValueError(f"ground set of size {n} exceeds cap {max_ground}")
    if which == "I":
        return _check_independence(sys)
    if which == "B":
        return _check_bases(sys)
    if which == "R":
        return _check_rank_local(sys)
    if which == "R'":
        return _check_rank_global(sys)
    if which == "S":
        return _check_closure(sys)
    return _check_circuits(sys)


def _need_members(sys: SetSystem) -> set[int]:
    if sys.members is None:
        raise ValueError("this verifier needs an explicit member list")
    return {sys.to_mask(m) for m in sys.members}


def _rank_list(sys: SetSystem) -> list[int]:
    if sys.rank is None:
        raise ValueError("rank verifier needs a rank table")
    n = len(sys.ground)
    table = [-1] * (1 << n)
    for subset, r in sys.rank.items():
        table[sys.to_mask(subset)] = r
    if any(r == -1 for r in table):
        raise ValueError("rank table is not total on the powerset")
    return table


def _closure_list(sys: SetSystem) -> list[int]:
    if sys.closure is None:
        raise ValueError("closure verifier needs a closure table")
    n = len(sys.ground)
    table = [-1] * (1 << n)
    for subset, cl in sys.closure.items():
        table[sys.to_mask(subset)] = sys.to_mask(cl)
    if any(c == -1 for c in table):
        raise ValueError("closure table is not total on the powerset")
    return table


def _submasks(mask: int) -> Iterator[int]:
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def _check_independence(sys: SetSystem) -> AxiomReport:
    members = _need_members(sys)
    if 0 not in members:
        return AxiomReport("I", False, ("I1",))
    for x in sorted(members):
        for y in sorted(_submasks(x)):
            if y not in members:
                return AxiomReport("I", False, ("I2", sys.from_mask(x), sys.from_mask(y)))
    by_size: dict[int, list[int]] = {}
    for m in sorted(members):
        by_size.setdefault(bin(m).count("1"), []).append(m)
    for size, smaller in sorted(by_size.items()):
        for u in by_size.get(size + 1, ()):
            for v in smaller:
                if not any(v | b in members for b in _bits(u & ~v)):
                    return AxiomReport(
                        "I", False, ("I3", sys.from_mask(u), sys.from_mask(v))
                    )
    return AxiomReport("I", True)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


def _check_bases(sys: SetSystem) -> AxiomReport:
    members = sorted(_need_members(sys))
    if not members:
        return AxiomReport("B", False, ("B-nonempty",))
    for b1 in members:
        for b2 in members:
            for x in _bits(b1 & ~b2):
                candidate = False
                for y in _bits(b2 & ~b1):
                    if (b1 | y) & ~x in members:
                        candidate = True
                        break
                if not candidate:
                    return AxiomReport(
                        "B",
                        False,
                        ("B1", sys.from_mask(b1), sys.from_mask(b2), sys.from_mask(x)),
                    )
    return AxiomReport("B", True)


def _check_rank_local(sys: SetSystem) -> AxiomReport:
    rk = _rank_list(sys)
    n = len(sys.ground)
    if rk[0] != 0:
        return AxiomReport("R", False, ("R1", ()))
    singles = [1 << i for i in range(n)]
    for x in range(1 << n):
        rx = rk[x]
        for y in singles:
            rxy = rk[x | y]
            if not rx <= rxy <= rx + 1:
                return AxiomReport(
                    "R", False, ("R2", sys.from_mask(x), sys.from_mask(y))
                )
    for x in range(1 << n):
        rx = rk[x]
        flat_adds = [y for y in singles if rk[x | y] == rx]
        for i, y in enumerate(flat_adds):
            for z in flat_adds[i + 1 :]:
                if rk[x | y | z] != rx:
                    return AxiomReport(
                        "R",
                        False,
                        ("R3", sys.from_mask(x), sys.from_mask(y), sys.from_mask(z)),
                    )
    return AxiomReport("R", True)


def _check_rank_global(sys: SetSystem) -> AxiomReport:
    rk = _rank_list(sys)
    n = len(sys.ground)
    for x in range(1 << n):
        if not 0 <= rk[x] <= bin(x).count("1"):
            return AxiomReport("R'", False, ("R1'", sys.from_mask(x)))
    for x in range(1 << n):
        rx = rk[x]
        for y in _submasks(x):
            if rk[y] > rx:
                return AxiomReport(
                    "R'", False, ("R2'", sys.from_mask(y), sys.from_mask(x))
                )
    for x in range(1 << n):
        rx = rk[x]
        for y in range(1 << n):
            if rk[x | y] + rk[x & y] > rx + rk[y]:
                return AxiomReport(
                    "R'", False, ("R3'", sys.from_mask(x), sys.from_mask(y))
                )
    return AxiomReport("R'", True)


def _check_closure(sys: SetSystem) -> AxiomReport:
    cl = _closure_list(sys)
    n = len(sys.ground)
    for x in range(1 << n):
        if x & ~cl[x]:
            return AxiomReport("S", False, ("S1", sys.from_mask(x)))
    for x in range(1 << n):
        cx = cl[x]
        for y in _submasks(x):
            if cl[y] & ~cx:
                return AxiomReport(
                    "S", False, ("S2", sys.from_mask(y), sys.from_mask(x))
                )
    for x in range(1 << n):
        if cl[cl[x]] != cl[x]:
            return AxiomReport("S", False, ("S3", sys.from_mask(x)))
    singles = [1 << i for i in range(n)]
    for x in range(1 << n):
        cx = cl[x]
        for xe in singles:
            cxx = cl[x | xe]
            for y in singles:
                if not cx & y and cxx & y and not cl[x | y] & xe:
                    return AxiomReport(
                        "S",
                        False,
                        ("S4", sys.from_mask(x), sys.from_mask(xe), sys.from_mask(y)),
                    )
    return AxiomReport("S", True)


def _check_circuits(sys: SetSystem) -> AxiomReport:
    members = sorted(_need_members(sys))
    for c1 in members:
        for c2 in members:
            if c1 != c2 and c1 & ~c2 == 0:
                return AxiomReport(
                    "C", False, ("C1", sys.from_mask(c1), sys.from_mask(c2))
                )
    for c1 in members:
        for c2 in members:
            if c1 == c2:
                continue
            for z in _bits(c1 & c2):
                union = (c1 | c2) & ~z
                if not any(c3 & ~union == 0 for c3 in members):
                    return AxiomReport(
                        "C",
                        False,
                        ("C2", sys.from_mask(c1), sys.from_mask(c2), sys.from_mask(z)),
                    )
    return AxiomReport("C", True)
