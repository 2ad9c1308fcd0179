"""Cycle matroids: rank, closure, flats, chains of flats, and axiom verifiers.

A graph's flats are the edges inside the blocks of the vertex partitions
whose blocks each induce a connected subgraph, one partition per flat, and
``_flat_rows`` lists them in one walk over the set partitions.
``FlatLattice`` holds those rows as columns and builds the rest on first
use: the ``Flat`` objects (each derives its blocks from its edge set and
refuses a set that is not closed), the covers read off merges of two
blocks joined by an edge, and each flat's strict up-set as an int bitset.
The chains of a bitset of allowed flats are walked depth first in the
order of their rays, on comparability bitsets read off the up-sets, and
come out as edge masks in the order of their fan's cones, with no
``Flat``; a DP over the same up-sets counts them by length without
building a chain.  The rank-2 intervals, which the Bergman fan's
balancing verdict reads, come off the covers.  The five presentations of
the cycle matroid read one subset table per graph, cached for the last
graph asked about.  The axiom verifiers
exhaustively check a presented set system against one of the five axiom
families (independence, bases, two rank systems, closure, circuits) and
report the first counterexample in canonical order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain, combinations
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .graphs import EdgeSet, Graph, _connected_on, _fold, _induced, _join, components


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
        s, index = self.edges, self.graph.edge_index
        blocks = components(s.graph, s)
        # s lies inside its blocks, so it is closed when it has every edge they span
        if sum(e in index for b in blocks for e in combinations(b, 2)) != s.mask.bit_count():
            raise ValueError("a flat must be a closed edge set")
        object.__setattr__(self, "blocks", tuple(blocks))

    @property
    def graph(self) -> Graph:
        return self.edges.graph

    @cached_property
    def rank(self) -> int:
        return sum(len(b) - 1 for b in self.blocks)

    @property
    def mask(self) -> int:
        return self.edges.mask


@dataclass(frozen=True, slots=True)
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
    return Flat(EdgeSet(g, sum(_induced(g, b) for b in _fold(g, s)[0])))


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
    """All flats of the cycle matroid, sorted by (rank, edge order): the
    ``Flat`` objects of the graph's ``FlatLattice``."""
    return FlatLattice(g).flats


def _flat_rows(g: Graph) -> tuple[list[tuple], dict[int, int]]:
    """The flats of g as rows ``(rank, edge positions, edge mask, blocks)``,
    sorted, which is the one order of flats, and the induced-edge mask of
    each block met, 0 for a disconnected one.  A set partition of the label
    positions is kept when each block is connected in g (tested once per
    block); its flat is the OR of its blocks' induced edges, and ``blocks``
    holds those of two or more labels as label-position bitmasks."""
    if g.num_vertices > MAX_FLAT_VERTICES:
        raise ValueError(f"flat enumeration capped at {MAX_FLAT_VERTICES} vertices")
    m, adj = g.num_vertices, g.adjacency
    induced: dict[int, int] = {}
    rows = []
    for part in set_partitions([1 << v for v in range(m)]):
        mask, blocks = 0, []
        for block in part:
            if len(block) > 1:
                b = sum(block)
                edges = induced.get(b)
                if edges is None:
                    edges = induced[b] = _induced(g, b) if _connected_on(adj, b) else 0
                if not edges:
                    break
                mask |= edges
                blocks.append(b)
        else:
            rows.append((m - len(part), tuple(_positions(mask)), mask, tuple(blocks)))
    rows.sort()
    return rows, induced


class FlatLattice:
    """The lattice of flats of a graph's cycle matroid, built once.

    ``ranks``, ``masks`` and ``blocks`` are the columns of ``_flat_rows``,
    and ``proper`` is the bitset of the nonempty flats other than the full
    edge set; sets of flats are passed around as such bitsets.  The rest
    is built on first use: ``flats``, ``index`` (edge mask to position),
    ``covers[i]``, the positions of the flats covering flat i, ascending,
    and ``up[i]``, its strict up-set as an int bitset.  Adding an edge
    outside a flat and closing merges the two blocks (or lone vertices)
    that it joins, and every cover arises so.  A cover comes later in the
    order, so the up-sets are ORed from the covers' in reverse order.
    """

    def __init__(self, g: Graph):
        self.graph = g
        rows, self._block_edges = _flat_rows(g)
        self.ranks, _, self.masks, self.blocks = zip(*rows)
        # positions 1 .. len - 2: the empty flat is first and the full one last
        self.proper = ((1 << (len(rows) - 1)) - 1) & ~1

    @cached_property
    def flats(self) -> list[Flat]:
        return [Flat(EdgeSet(self.graph, m)) for m in self.masks]

    @cached_property
    def index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.masks)}

    @cached_property
    def covers(self) -> list[list[int]]:
        index, induced, ends = self.index, self._block_edges, self.graph.end_bits
        covers = []
        for mask, blocks in zip(self.masks, self.blocks):
            owner = {v: b for b in blocks for v in _bits(b)}
            merged = {
                owner.get(x, x) | owner.get(y, y)
                for i, (x, y) in enumerate(ends)
                if not mask >> i & 1
            }
            covers.append(sorted(index[mask | induced[b]] for b in merged))
        return covers

    @cached_property
    def up(self) -> list[int]:
        up = [0] * len(self.masks)
        for i in reversed(range(len(up))):
            for p in self.covers[i]:
                up[i] |= 1 << p | up[p]
        return up

    def rank2_intervals(self) -> Iterator[tuple[int, int, list[int]]]:
        """Every interval [A, B] with rank B = rank A + 2, as ``(a, b,
        atoms)``: the positions of A and B, by a and then by b, and the
        positions of the flats between them (the atoms of the interval),
        ascending.  Each is read off ``covers``: B covers an atom, which
        covers A."""
        for a, above in enumerate(self.covers):
            atoms: dict[int, list[int]] = {}
            for c in above:
                for b in self.covers[c]:
                    atoms.setdefault(b, []).append(c)
            for b in sorted(atoms):
                yield a, b, atoms[b]

    def chain_census(self, allowed: int) -> tuple[int, ...]:
        """The number of strictly increasing chains of the flats in the
        bitset ``allowed``, by length 0, 1, ..., up to the longest: the
        census of their chain fan.  A DP over the up-sets, from the last
        position down: the chains that start at flat i are i alone and i
        followed by a chain that starts in ``up[i] & allowed``."""
        size = self.ranks[-1] + 2  # a chain holds at most one flat per rank
        starting: dict[int, list[int]] = {}  # position -> counts by length
        total = [1] + [0] * (size - 1)
        for i in reversed(list(_positions(allowed))):
            counts = [0, 1] + [0] * (size - 2)
            for j in _positions(self.up[i] & allowed):
                after = starting[j]
                for k in range(1, size - 1):
                    counts[k + 1] += after[k]
            starting[i] = counts
            for k in range(1, size):
                total[k] += counts[k]
        while total[-1] == 0:
            total.pop()
        return tuple(total)


def _positions(bits: int) -> Iterator[int]:
    """The positions of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def all_chains(g: Graph) -> Iterator[ChainOfFlats]:
    """Every strictly increasing chain of proper nonempty flats, the empty
    chain included, in cone order, the order of g's Bergman fan's cones: by
    length, then by the flats' ray ids (``_chains_in_cone_order``)."""
    lattice = FlatLattice(g)
    flats, index = lattice.flats, lattice.index
    for masks in _chains_in_cone_order(lattice, lattice.proper)[2]:
        yield ChainOfFlats(tuple(flats[index[x]] for x in masks))


def _chains_in_cone_order(lattice: FlatLattice, allowed: int) -> tuple[list[int], tuple, tuple]:
    """The strictly increasing chains of the flats in the bitset
    ``allowed`` (proper flats of the lattice) in cone order, as ``(rays,
    ids, masks)``: the allowed flats' masks in ray order (see ``bergman``),
    and per chain, the empty one first, its ray ids (positions in
    ``rays``) and its masks, each ascending.  A depth-first walk in ray
    order extends a chain only by later flats comparable to every member
    (bitsets read off the up-sets), so its preorder is lexicographic on ray
    ids, and bucketing by length gives cone order.  Ray order lists the
    flats that miss the last edge, which lie inside those that hold it,
    then those, each group from the largest down: so each new flat is
    prepended to its group's masks."""
    masks, up = lattice.masks, lattice.up
    m = len(lattice.graph.edges)
    top = 1 << m >> 1  # the last edge; no edge at all gives 0
    rays = sorted(  # by the last edge, then by the bit-reversed mask, descending
        map(masks.__getitem__, _positions(allowed)),
        key=lambda x: (x & top, -int(f"{x:0{m}b}"[::-1], 2)),
    )
    ray_id = {lattice.index[x]: a for a, x in enumerate(rays)}
    later = [0] * len(rays)  # the later flats comparable to each
    for p, a in ray_id.items():
        for b in map(ray_id.__getitem__, _positions(up[p] & allowed)):
            later[min(a, b)] |= 1 << max(a, b)
    # a chain holds at most one flat of each rank
    ids_by_length = [[()]] + [[] for _ in range(lattice.ranks[-1] + 1)]
    masks_by_length = [[()]] + [[] for _ in range(lattice.ranks[-1] + 1)]

    def extend(ids: tuple, low: tuple, high: tuple, candidates: int):
        ids_out, masks_out = ids_by_length[len(ids) + 1], masks_by_length[len(ids) + 1]
        while candidates:
            bit = candidates & -candidates
            candidates ^= bit
            b = bit.bit_length() - 1
            x, longer = rays[b], ids + (b,)
            lower, higher = (low, (x,) + high) if x & top else ((x,) + low, high)
            ids_out.append(longer)
            masks_out.append(lower + higher)
            after = candidates & later[b]
            if after:
                extend(longer, lower, higher, after)

    extend((), (), (), (1 << len(rays)) - 1)
    return rays, *(tuple(chain.from_iterable(c)) for c in (ids_by_length, masks_by_length))


# ---------------------------------------------------------------------------
# Cycle-matroid presentations, for feeding the axiom verifiers


@lru_cache(maxsize=1)
def _subset_table(g: Graph) -> tuple[list[frozenset], list[int], list[int]]:
    """Each edge mask's edges, rank and closure mask, by mask, in one pass
    in increasing order: a mask's components are those of the mask without
    its lowest edge joined by that edge, and a join that raises the rank
    makes a block whose induced edges hold the merged blocks'.  The
    presentations read it in turn, so the last graph's table (2^|E| rows)
    stays alive until another graph is asked about."""
    sets, ranks, closures, blocks = [frozenset()], [0], [0], [()]
    for mask in range(1, 1 << len(g.edges)):
        i, rest = (mask & -mask).bit_length() - 1, mask & (mask - 1)
        joined, grew = _join(blocks[rest], g.end_bits[i])
        blocks.append(joined)
        ranks.append(ranks[rest] + grew)
        sets.append(sets[rest] | {g.edges[i]})
        closures.append(closures[rest] | _induced(g, joined[-1]) if grew else closures[rest])
    return sets, ranks, closures


def independent_sets(g: Graph) -> list[frozenset]:
    """The forests, in edge-mask order (g's 2^|E|-row table stays cached till the next graph)."""
    return [s for s, r in zip(*_subset_table(g)[:2]) if len(s) == r]


def bases(g: Graph) -> list[frozenset]:
    """Spanning forests, in edge-mask order (g's 2^|E|-row table stays cached till the next graph)."""
    rank = _subset_table(g)[1][-1]
    return [s for s in independent_sets(g) if len(s) == rank]


def circuits(g: Graph) -> list[frozenset]:
    """Minimal dependent sets, in edge-mask order: the dependent sets all of
    whose one-edge deletions are forests (g's 2^|E|-row table stays cached till the next graph)."""
    sets, ranks, _ = _subset_table(g)
    forest = [len(s) == r for s, r in zip(sets, ranks)]
    return [s for m, s in enumerate(sets) if not forest[m] and all(forest[m & ~b] for b in _bits(m))]


def rank_table(g: Graph) -> dict[frozenset, int]:
    """Each edge set's rank (g's 2^|E|-row table stays cached till the next graph)."""
    return dict(zip(*_subset_table(g)[:2]))


def closure_table(g: Graph) -> dict[frozenset, frozenset]:
    """Each edge set's closure (g's 2^|E|-row table stays cached till the next graph)."""
    sets, _, closures = _subset_table(g)
    return {s: sets[c] for s, c in zip(sets, closures)}


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
