"""Slow, independent routes that the tests compare the library against.

Rational Gauss-Jordan for ranks, span tests and inverses, the integer
elimination the library left behind (fraction-free echelon forms with
non-unit pivots and span tests on them, Hermite forms with their
transform, integer kernels, orthogonal complements and saturation as a
double complement, which takes any rows), lattice reduction, the
primitive normal of an arbitrary integer cone by its closed form, the dict
form of a fan's JSON document (beside the library writer's chunks joined
into one text), a graph's complement, the canonical
distance class by Fraction sums, psi by inverting its matrix on the basis
of two-element splits, graphic stability by the vertex-local rule, radial
faces by weakly monotone level maps, a type's end hosts and its edge
contractions, circuits as minimal dependent sets by
pairwise comparison, the flats by deduplicating the cluster graphs of all
vertex partitions, lattice covers by containment of every pair of flats,
the covers and up-sets by containment read off each edge's holders,
chains of flats by a successor scan over every pair of flats, the stable
flats flat by flat, the connected graphs by filtering every edge subset, the
trichotomy's injectivity and rank verdicts in two full passes, and the
caterpillar chain grown as a vertex set, balancing with its star index
and layer tests made afresh on every call, and the vector route to a fan: cones
built from their rays as vectors and keyed by ray sets, with projection by
coordinates, and the vector arithmetic (zero, scaling, negation and
difference) that builds test vectors.  None of these is on a library path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from typing import Optional, Sequence

from tropfan import (
    ChainOfFlats,
    Cone,
    EdgeSet,
    Graph,
    QnVector,
    QuotientVector,
    RadialType,
    fan_json_chunks,
    graph_rank,
    is_complete_multipartite,
    project_vector,
    ray_of_flat,
    rho_split,
    tropical_type,
)
from tropfan.bergman import SCHEMA, _constant_on_layers, _num, edge_str
from tropfan.graphs import _cluster_mask, is_acyclic, spanning_forest
from tropfan.matroid import Flat
from tropfan.tropmoduli import pair_list


def ends_at(t) -> tuple[int, ...]:
    """The vertex of a type holding each end 1..n: the last split holding
    it (splits come largest first), or the root, vertex 0."""
    hosts = [0] * t.n
    for i, s in enumerate(t.splits, start=1):
        for e in s:
            hosts[e - 1] = i
    return tuple(hosts)


def contract_edge(t, edge: tuple[int, int]):
    """The type with the bounded edge ``(parent, child)`` contracted, which
    drops the child's split."""
    if edge not in t.edges:
        raise ValueError(f"{edge} is not a bounded edge of this type")
    child_split = t.splits[edge[1] - 1]
    return tropical_type(t.n, (s for s in t.splits if s != child_split))


def vertex_demand(t, v: int) -> Optional[tuple[int, ...]]:
    """The stability rule at one vertex of a type, with the graph left out.

    Returns None when the vertex is stable for every stability graph, and
    otherwise the ends of which the graph must join at least two (so an
    empty tuple means no graph can stabilise it).  The root always passes:
    it carries end 1.  A non-root vertex with more than two bounded edges
    passes; with exactly two it passes iff it holds an end; a leaf needs two
    of its ends joined.
    """
    ends = tuple(e for e, host in enumerate(ends_at(t), start=1) if host == v)
    d = sum(1 for e in t.edges if v in e)
    if v == 0 or d > 2:
        return None
    if d == 2:
        return None if ends else ()
    return ends


def vertex_stable(t, gamma, v: int) -> bool:
    ends = vertex_demand(t, v)
    return ends is None or any(e in gamma.edge_index for e in combinations(ends, 2))


def rational_rank(rows: Sequence[Sequence]) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        pv = m[rank][col]
        m[rank] = [x / pv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def solve_in_span(rows: Sequence[Sequence], target: Sequence) -> Optional[list[Fraction]]:
    """Coefficients c with sum(c_i * rows_i) == target, or None.

    When the rows are linearly independent the solution is unique.
    """
    nrows = len(rows)
    if nrows == 0:
        return [] if not any(target) else None
    ncols = len(rows[0])
    # columns of the system are the given rows; eliminate on the transpose
    aug = [[Fraction(rows[i][j]) for i in range(nrows)] + [Fraction(target[j])]
           for j in range(ncols)]
    pivots: list[tuple[int, int]] = []
    rank = 0
    for col in range(nrows):
        pivot = next((i for i in range(rank, ncols) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for i in range(ncols):
            if i != rank and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[rank])]
        pivots.append((rank, col))
        rank += 1
    for i in range(rank, ncols):
        if aug[i][nrows] != 0:
            return None
    coeffs = [Fraction(0)] * nrows
    for row, col in pivots:
        coeffs[col] = aug[row][nrows]
    return coeffs


def in_rational_span(rows: Sequence[Sequence], target: Sequence) -> bool:
    return solve_in_span(rows, target) is not None


# ---------------------------------------------------------------------------
# Integer elimination: echelon forms, Hermite forms, kernels and saturations

Mat = Sequence[Sequence[int]]


def echelon(rows: Mat) -> tuple[list[list[int]], list[int], bool]:
    """Row echelon form of integer rows, fraction-free.

    Returns ``(E, pivots, unit)``: the nonzero rows E of an echelon form, the
    pivot column of each row, and whether every pivot is 1 or -1.  Zero rows
    are dropped, so ``len(E)`` is the rank.  Each step pivots on a unit
    entry of a remaining row when there is one, and eliminates by exact
    integer row subtraction; with no unit entry left it pivots on a smallest
    entry, cross-multiplies and divides each changed row by its gcd.  Row i
    of E vanishes in the pivot columns of rows 0..i-1.

    When ``unit`` holds and no row was dropped, every step was unimodular
    and the pivot columns of E form a triangular minor of determinant 1 or
    -1, so the input rows are a basis of the integer points of their span.
    """
    pending = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    pivots: list[int] = []
    unit = True
    while pending:
        pick = _unit_entry(pending)
        if pick is None:
            unit = False
            pick = min(
                ((i, j) for i, r in enumerate(pending) for j, x in enumerate(r) if x),
                key=lambda ij: abs(pending[ij[0]][ij[1]]),
            )
        i, col = pick
        row = pending.pop(i)
        out.append(row)
        pivots.append(col)
        rest = []
        for r in pending:
            if r[col]:
                r = _eliminate(r, row, col)
                if not any(r):
                    continue
            rest.append(r)
        pending = rest
    return out, pivots, unit


def _unit_entry(rows: list[list[int]]) -> Optional[tuple[int, int]]:
    """(row, column) of the first 1 or -1 in the first row holding one."""
    for i, r in enumerate(rows):
        if 1 in r:
            return i, r.index(1)
        if -1 in r:
            return i, r.index(-1)
    return None


def _eliminate(target: list[int], row: list[int], col: int) -> list[int]:
    """``target`` with its ``col`` entry cleared by the pivot row ``row``:
    plain subtraction for a unit pivot, else cross-multiplication and
    division by the result's gcd.  Its span together with ``row`` is kept."""
    c = target[col]
    if not c:
        return target
    a = row[col]
    if a == 1 or a == -1:
        q = c * a
        return [x - q * y for x, y in zip(target, row)]
    g = math.gcd(a, c)
    a, c = a // g, c // g
    out = [a * x - c * y for x, y in zip(target, row)]
    g = math.gcd(*out)
    return [x // g for x in out] if g > 1 else out


def echelon_in_span(rows: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Whether ``target`` lies in the rational span of integer ``rows``, by
    eliminating it against their fraction-free ``echelon`` form: the
    generic span test that balancing's layer test is compared against."""
    span, pivots, _ = echelon(rows)
    v = list(target)
    for row, col in zip(span, pivots):
        v = _eliminate(v, row, col)
    return not any(v)


def hnf_transform(rows: Mat) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form with transform: returns (H, U) with U*M = H.

    U is unimodular; H is in row echelon form with positive pivots and entries
    above each pivot reduced into [0, pivot).  Zero rows of H sink to the
    bottom.
    """
    h = [list(r) for r in rows]
    nrows = len(h)
    ncols = len(h[0]) if nrows else 0
    u = [[int(i == j) for j in range(nrows)] for i in range(nrows)]
    pivot_row = 0
    for col in range(ncols):
        # clear the column below pivot_row by gcd steps
        while True:
            nonzero = [i for i in range(pivot_row, nrows) if h[i][col] != 0]
            if not nonzero:
                break
            i0 = min(nonzero, key=lambda i: abs(h[i][col]))
            if i0 != pivot_row:
                h[i0], h[pivot_row] = h[pivot_row], h[i0]
                u[i0], u[pivot_row] = u[pivot_row], u[i0]
            a = h[pivot_row][col]
            done = True
            for i in range(pivot_row + 1, nrows):
                q = h[i][col] // a
                if q:
                    _row_sub(h[i], h[pivot_row], q)
                    _row_sub(u[i], u[pivot_row], q)
                if h[i][col]:
                    done = False
            if done:
                break
        if pivot_row < nrows and h[pivot_row][col] != 0:
            if h[pivot_row][col] < 0:
                h[pivot_row] = [-x for x in h[pivot_row]]
                u[pivot_row] = [-x for x in u[pivot_row]]
            a = h[pivot_row][col]
            for i in range(pivot_row):
                q = h[i][col] // a
                if q:
                    _row_sub(h[i], h[pivot_row], q)
                    _row_sub(u[i], u[pivot_row], q)
            pivot_row += 1
            if pivot_row == nrows:
                break
    return h, u


def _row_sub(target: list[int], source: list[int], q: int):
    for j, s in enumerate(source):
        if s:
            target[j] -= q * s


def left_kernel(rows: Mat) -> list[list[int]]:
    """Basis of {x integer : x * M = 0}, as rows."""
    h, u = hnf_transform(rows)
    return [u[i] for i in range(len(h)) if not any(h[i])]


def transpose(rows: Mat) -> list[list[int]]:
    return [list(col) for col in zip(*rows)] if rows else []


def orthogonal_complement(rows: Mat, ncols: int) -> list[list[int]]:
    """Basis of the lattice of integer vectors orthogonal to all given rows."""
    if not rows:
        return [[int(i == j) for j in range(ncols)] for i in range(ncols)]
    return left_kernel(transpose(rows))


def complement_saturation(rows: Mat, ncols: int) -> list[list[int]]:
    """Basis of (rational row span of ``rows``) intersected with Z^ncols,
    as the double orthogonal complement: integer kernels are always
    saturated.  It takes any integer rows, unit pivots or not."""
    return orthogonal_complement(orthogonal_complement(rows, ncols), ncols)


def hnf(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Nonzero rows of the row Hermite normal form H of ``hnf_transform``."""
    return [r for r in hnf_transform(rows)[0] if any(r)]


def saturated_hnf(rows: Mat, m: int) -> list[list[int]]:
    """Lattice oracle: the Hermite form of the saturation of ``rows`` in
    Z^m, by double orthogonal complement."""
    return hnf(complement_saturation(rows, m))


def hnf_reduce(basis_hnf: Sequence[Sequence[int]], vec: Sequence[int]) -> list[int]:
    """Reduce ``vec`` modulo the lattice spanned by HNF ``basis_hnf`` rows.

    Subtracts integer multiples of the basis rows so that each pivot
    coordinate of the result lies in [0, pivot).  The result is the canonical
    coset representative; it is zero exactly when ``vec`` is in the lattice.
    """
    v = list(vec)
    for row in basis_hnf:
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None:
            continue
        q = v[col] // row[col]
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return v


def in_lattice(basis_hnf: Sequence[Sequence[int]], vec: Sequence[int]) -> bool:
    return not any(hnf_reduce(basis_hnf, vec))


def primitive_vector(vec: Sequence[int]) -> list[int]:
    """Divide an integer vector by the gcd of its entries (direction kept)."""
    g = math.gcd(*vec)
    if g == 0:
        return list(vec)
    return [x // g for x in vec]


def solve_coeffs_one(g: Sequence[int]) -> Optional[list[int]]:
    """Integer coefficients c with sum(c_i * g_i) == 1, or None if gcd(g) != 1."""
    acc = 0
    acc_coeffs = [0] * len(g)
    for i, x in enumerate(g):
        if x == 0:
            continue
        r, s, d = _xgcd(acc, x)  # r*acc + s*x == d
        acc_coeffs = [r * c for c in acc_coeffs]
        acc_coeffs[i] = s
        acc = d
    return acc_coeffs if acc == 1 else None


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


def lattice_normal(tau_rows: Sequence[Sequence[int]], extra: Sequence[int], m: int) -> list[int]:
    """The primitive lattice normal of the cone on independent integer rows
    ``tau_rows`` in the cone on those rows and ``extra``, in Z^m: an integer
    vector whose class generates the rank-one quotient of sigma's saturated
    lattice by tau's, oriented into sigma, reduced to the canonical
    representative modulo tau's saturated lattice.

    Closed form: take f, the first vector of the integer orthogonal
    complement of tau's rows with f . extra != 0, signed so that
    f . extra > 0.  On a basis b_1..b_k of sigma's saturated lattice, f takes
    values f . b_i whose gcd is g; since f's kernel on that lattice is tau's
    saturated lattice, (f . b_i) / g is the primitive functional of the
    quotient.  Extended gcd gives integers c_i with sum c_i (f . b_i) / g = 1,
    and u = sum c_i b_i, reduced by the Hermite form of tau's saturated
    lattice.
    """
    tau_rows = [list(r) for r in tau_rows]
    f = next((f for f in orthogonal_complement(tau_rows, m) if _dot(f, extra)), None)
    if f is None:
        raise ValueError("extra lies in the span of tau's rows")
    if _dot(f, extra) < 0:
        f = [-x for x in f]
    basis_sigma = complement_saturation(tau_rows + [list(extra)], m)
    values = [_dot(f, b) for b in basis_sigma]
    g = math.gcd(*values)
    coeffs = solve_coeffs_one([v // g for v in values])
    if coeffs is None:
        raise RuntimeError("quotient lattice is not cyclic of index one")
    u = [sum(c * b[j] for c, b in zip(coeffs, basis_sigma)) for j in range(m)]
    if tau_rows:
        u = hnf_reduce(saturated_hnf(tau_rows, m), u)
    return u


def invert_rational(rows: Sequence[Sequence]) -> list[list[Fraction]]:
    """Inverse of a square matrix by Gauss-Jordan over the rationals."""
    n = len(rows)
    aug = [
        [Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(rows)
    ]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]


def qn_canonical_oracle(n: int, coords: Sequence) -> QnVector:
    """The canonical member of the distance class of ``coords``, summed in
    Fractions off a dict of pairs: coordinate (1, j) is 0 and (i, j) is
    y_ij - y_1i - y_1j + (y_12 + y_13 - y_23), an int when integral."""
    pairs = pair_list(n)
    if len(coords) != len(pairs):
        raise ValueError("coordinate length does not match the pair count")
    y = {p: Fraction(c) for p, c in zip(pairs, coords)}
    shift = y[1, 2] + y[1, 3] - y[2, 3]
    canon = []
    for i, j in pairs:
        c = 0 if i == 1 else y[i, j] - y[1, i] - y[1, j] + shift
        canon.append(int(c) if c.denominator == 1 else c)
    return QnVector(n, tuple(canon))


def psi_by_inverse(v: QnVector) -> QuotientVector:
    """psi from its values on a basis: the ray of split {i, j} goes to minus
    the unit vector of edge (i, j).

    The rays of all two-element splits but the last form a basis of the
    distance classes.  Their canonical coordinates off the pivot pairs (1, j)
    and (2, 3) form a square matrix; its inverse gives ``v``'s coefficients
    in that basis, and each coefficient lands, negated, on its edge.  Only
    the coordinates off the pivot pairs are read, so ``v`` must be canonical.
    """
    n = v.n
    edges = list(combinations(range(2, n + 1), 2))
    pivots = {(1, j) for j in range(2, n + 1)} | {(2, 3)}
    free_idx = [i for i, p in enumerate(pair_list(n)) if p not in pivots]
    basis = edges[:-1]
    columns = [rho_split(n, s) for s in basis]
    inverse = invert_rational([[col.coords[i] for col in columns] for i in free_idx])
    rhs = [v.coords[i] for i in free_idx]
    coeffs = [sum(a * b for a, b in zip(row, rhs)) for row in inverse]
    return QuotientVector.from_raw(edges, [-c for c in coeffs] + [0])


def radial_alignments_by_product(c) -> list:
    """The radial alignments of a type by filtering every level map: for
    each number k of levels, each map from the non-root vertices to 1..k in
    ``product`` order is kept when it uses every level and levels strictly
    increase along the bounded edges."""
    vertices = list(range(1, c.num_vertices))
    out = []
    for k in range(len(vertices) + 1):
        needed = set(range(1, k + 1))
        for values in product(range(1, k + 1), repeat=len(vertices)):
            if needed - set(values):
                continue
            w = dict(zip(vertices, values))
            w[0] = 0
            if all(w[u] < w[v] for u, v in c.edges):
                levels = tuple(
                    frozenset(v for v in vertices if w[v] == lvl) for lvl in range(1, k + 1)
                )
                out.append(RadialType(c, levels))
    return out


def radial_faces_by_level_maps(c) -> list:
    """Faces of the radially subdivided cone of a type, one per weakly
    monotone level map: each non-root vertex gets a level 0..k, every level
    1..k is used, and levels never decrease away from the root.  A bounded
    edge whose ends share a level collapses, and level 0 means merged into
    the root."""
    vertices = list(range(1, c.num_vertices))
    faces = []
    for k in range(len(vertices) + 1):
        for values in product(range(k + 1), repeat=len(vertices)):
            if set(range(1, k + 1)) - set(values):
                continue
            w = dict(zip(vertices, values))
            w[0] = 0
            if not all(w[u] <= w[v] for u, v in c.edges):
                continue
            level_of = {c.splits[v - 1]: w[v] for u, v in c.edges if w[u] < w[v]}
            typ = tropical_type(c.n, level_of)
            levels = tuple(
                frozenset(i + 1 for i, s in enumerate(typ.splits) if level_of[s] == lvl)
                for lvl in range(1, k + 1)
            )
            faces.append(RadialType(typ, levels))
    return faces


def circuits_by_pairs(g) -> list[frozenset]:
    """Minimal dependent sets by the definition: the dependent sets that
    contain no other dependent set, in edge-mask order."""
    dependent = [
        m for m in range(1 << len(g.edges)) if not is_acyclic(g, EdgeSet(g, m))
    ]
    return [
        frozenset(EdgeSet(g, m).edges)
        for m in dependent
        if not any(d != m and d & ~m == 0 for d in dependent)
    ]


def vertex_partitions(labels: Sequence[int]) -> list[list[list[int]]]:
    """Every partition of ``labels`` into blocks, each partition of all but
    the last label extended by the last label alone or in one of its
    blocks."""
    if not labels:
        return [[]]
    *rest, last = labels
    out = []
    for part in vertex_partitions(rest):
        out.append(part + [[last]])
        out += [part[:i] + [block + [last]] + part[i + 1 :] for i, block in enumerate(part)]
    return out


def flats_by_dedupe(g: Graph) -> list[Flat]:
    """All flats of g, sorted by (rank, edge order): the restriction to g
    of the cluster graph of every vertex partition, each distinct edge set
    made a ``Flat`` once."""
    seen: dict[int, Flat] = {}
    for part in vertex_partitions(list(g.labels)):
        mask = _cluster_mask(g, part)
        if mask not in seen:
            seen[mask] = Flat(EdgeSet(g, mask))
    return sorted(seen.values(), key=lambda f: (f.rank, f.edges.edges))


def lattice_by_containment(g: Graph, masks: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The covers and strict up-sets of the flats of g with edge masks
    ``masks`` (in canonical order), as lists of positions and as int
    bitsets over positions, by containment: the flats containing flat i
    are those that hold each of its edges, the AND of the bitsets of the
    flats holding each edge, and its covers are the ones among them of
    rank one more."""
    everything = (1 << len(masks)) - 1
    holders = [
        sum(1 << j for j, m in enumerate(masks) if m >> e & 1) for e in range(len(g.edges))
    ]
    ranks = [graph_rank(g, EdgeSet(g, m)) for m in masks]
    of_rank: dict[int, int] = {}
    for j, r in enumerate(ranks):
        of_rank[r] = of_rank.get(r, 0) | 1 << j
    up = []
    for i, m in enumerate(masks):
        above = everything
        for e in range(len(g.edges)):
            if m >> e & 1:
                above &= holders[e]
        up.append(above & ~(1 << i))
    covers = []
    for i, r in enumerate(ranks):
        band, above = up[i] & of_rank.get(r + 1, 0), []
        while band:
            above.append((band & -band).bit_length() - 1)
            band &= band - 1
        covers.append(above)
    return covers, up


def lattice_by_pairs(g) -> list[tuple]:
    """Covering pairs (child, parent) of the lattice of flats, tested on
    every ordered pair: a containment that raises the rank by one."""
    flats = flats_by_dedupe(g)
    return [
        (a, b)
        for a in flats
        for b in flats
        if b.rank == a.rank + 1 and a.mask & ~b.mask == 0
    ]


@cache
def flat_demand_rows(n: int) -> tuple[tuple[Flat, tuple[int, ...]], ...]:
    """Each proper flat of the complete graph on 2..n, in canonical order,
    with the edge masks of the cliques on its blocks, read off the
    ``Flat`` objects: what a stability graph must meet for the one-flat
    chain's type to be stable.  Cached per n, as the callers ask it for
    thousands of graphs."""
    ambient = Graph.complete(range(2, n + 1))
    flats = flats_by_dedupe(ambient)[1:-1]  # the empty flat is first, the full one last
    return tuple((f, tuple(_cluster_mask(ambient, [b]) for b in f.blocks)) for f in flats)


def stable_flats(n: int, gmask: int) -> list[Flat]:
    """The proper flats of the complete graph on 2..n, in canonical order,
    whose one-flat type is stable for the graph with edge mask
    ``gmask``, flat by flat: each of the flat's blocks must hold an edge of
    the graph."""
    return [f for f, demands in flat_demand_rows(n) if all(m & gmask for m in demands)]


def connected_graphs_by_filter(labels) -> list[Graph]:
    """The connected graphs on ``labels`` in ``all_graphs`` order, by
    building every edge subset's graph and keeping those that a union-find
    spans: rank one less than the label count."""
    labels = tuple(labels)
    pool = list(combinations(labels, 2))
    graphs = (
        Graph(labels, tuple(e for i, e in enumerate(pool) if bits >> i & 1))
        for bits in range(1 << len(pool))
    )
    return [
        g
        for g in graphs
        if len(labels) < 2 or graph_rank(g, g.full_edge_set()) == len(labels) - 1
    ]


def injectivity_two_pass(gamma) -> tuple:
    """The trichotomy's verdicts in two full passes over the stable flats:
    (injective, rank criterion, multipartite, witness flat, witness triple),
    the witness flat being the first stable flat whose restriction to gamma
    loses rank."""
    n = gamma.labels[-1]
    ambient = Graph.complete(range(2, n + 1))
    gmask = EdgeSet.from_edges(ambient, gamma.edges).mask
    stable = stable_flats(n, gmask)
    images = set()
    injective = True
    for f in stable:
        restricted = f.mask & gmask
        if restricted in images:
            injective = False
        images.add(restricted)
    rank_ok = True
    witness = None
    for f in stable:
        restricted = EdgeSet(ambient, f.mask & gmask)
        if graph_rank(ambient, restricted) != f.rank:
            rank_ok = False
            if witness is None:
                witness = f
    multipartite, triple = is_complete_multipartite(gamma)
    return injective, rank_ok, multipartite, witness, triple


def caterpillar_by_growth(gamma) -> ChainOfFlats:
    """The caterpillar chain grown as a vertex set: start at the first
    spanning-tree edge, take the clique on the grown set, and add the
    smallest vertex that a tree edge joins to it, until one vertex is left."""
    tree_edges = spanning_forest(gamma, gamma.full_edge_set()).edges
    if not tree_edges:
        return ChainOfFlats(())
    ambient = Graph.complete(gamma.labels)

    def clique(vertices):
        return Flat(EdgeSet(ambient, _cluster_mask(ambient, [sorted(vertices)])))

    grown = set(tree_edges[0])
    flats = []
    while len(grown) < len(gamma.labels) - 1:
        flats.append(clique(grown))
        candidates = sorted(
            (b if a in grown else a)
            for a, b in tree_edges
            if (a in grown) != (b in grown)
        )
        grown.add(candidates[0])
    if len(gamma.labels) > 2:
        flats.append(clique(grown))
    return ChainOfFlats(tuple(flats))


def balance_per_call(fan) -> tuple[bool, Optional[Cone]]:
    """``is_balanced``'s verdict and first failing face, by the per-call
    body it replaced: one pass over the maximal cones indexes them by facet,
    and every codimension-one face runs its layer test, in cone order.
    Nothing is kept between calls, and the unimodularity certificate is
    left out: it never changes a verdict, and its own tests count it."""
    if not fan.is_pure:
        raise ValueError("balancing is only defined for pure fans")
    if fan.max_dim == 0:
        return True, None
    chains, weights = fan._masks, fan._weights
    star: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for s in fan._by_dim[fan.max_dim]:
        masks = chains[s]
        for i, mask in enumerate(masks):
            star.setdefault(masks[:i] + masks[i + 1 :], []).append((s, mask))
    full = (1 << len(fan.ambient)) - 1
    for t in fan._by_dim[fan.max_dim - 1]:
        members = star.get(chains[t], ())
        if not _constant_on_layers(chains[t], [(g, weights[s]) for s, g in members], full):
            return False, fan._cone(t)
    return True, None


def fan_json_text(fan, depth: int = 0, **fields) -> str:
    """The chunks of ``fan_json_chunks`` joined into the whole document, the
    text that the tests compare with ``json.dumps`` of ``fan_to_json``."""
    return "".join(fan_json_chunks(fan, depth, **fields))


def fan_to_json(fan) -> dict:
    """The dict form of a fan: ambient edges, rays, cones by ray indices with
    weights and provenance chains (one list of chains per cone fiber).
    ``json.dumps(fan_to_json(fan), indent=2)`` is the document whose chunks
    ``fan_json_chunks`` writes.

    The cones are read off the fan's rows (masks, weight and provenance
    chains, each the ascending edge masks of its flats over the fan's
    source graph, in cone order), so no ``Cone``, ``ChainOfFlats`` or
    ``Flat`` is made for them; the API edge that makes those has its own
    tests.  Each ray is made once per mask, as the one ray of the cone on
    that mask over the fan's ambient, which all its cones share, and every
    cone names its rays by their masks; the fan's own ray coordinates and
    ray ids are not read.  Each flat's edge strings are made once per
    mask, from the source graph's edge list."""
    ray: dict[int, QuotientVector] = {}
    for masks in fan._masks:
        for x in masks:
            if x not in ray:
                ray[x] = Cone(fan.ambient, (x,)).rays[0]
    rays = sorted(ray.items(), key=lambda item: item[1].coords)
    index = {x: i for i, (x, _) in enumerate(rays)}
    source = fan._source.edges if fan._source is not None else ()
    flat_json: dict[int, list[str]] = {}  # each flat's edge strings, by mask

    def chain_json(chain) -> list:
        out = []
        for x in chain:
            edges = flat_json.get(x)
            if edges is None:
                edges = flat_json[x] = [edge_str(e) for i, e in enumerate(source) if x >> i & 1]
            out.append(edges)
        return out

    cones = []
    for masks, weight, provenance in zip(fan._masks, fan._weights, fan._provenance):
        cones.append(
            {
                "rays": sorted(index[x] for x in masks),
                "weight": weight,
                "provenance": [chain_json(ch) for ch in provenance],
            }
        )
    return {
        "schema": SCHEMA,
        "ambient": [edge_str(e) for e in fan.ambient],
        "rays": [list(r.coords) for _, r in rays],
        "cones": cones,
    }


def complement(g: Graph) -> Graph:
    """The graph on g's labels whose edges are the pairs g lacks."""
    edges = tuple(e for e in combinations(g.labels, 2) if e not in g.edge_index)
    return Graph(g.labels, edges)


# ---------------------------------------------------------------------------
# The vector route: cones from rays as vectors


def zero_vector(ambient: Sequence) -> QuotientVector:
    return QuotientVector(tuple(ambient), (0,) * len(ambient))


def scale_vector(v: QuotientVector, factor) -> QuotientVector:
    return QuotientVector(v.ambient, tuple(_num(factor * c) for c in v.coords))


def neg_vector(v: QuotientVector) -> QuotientVector:
    return scale_vector(v, -1)


def sub_vectors(a: QuotientVector, b: QuotientVector) -> QuotientVector:
    """a - b; vectors over different ambient edge lists raise ValueError."""
    if a.ambient != b.ambient:
        raise ValueError("vectors over different ambient edge lists")
    return QuotientVector(a.ambient, tuple(_num(x - y) for x, y in zip(a.coords, b.coords)))


def edge_mask(v: QuotientVector) -> int:
    """The nonempty proper edge set whose ray ``v`` is, as a bit mask over
    its ambient: its -1 coordinates when all are 0 or -1, and its 0
    coordinates when all are 0 or 1.

    Any other vector is the ray of no such set and raises ValueError: the
    zero vector, a multiple of a ray, a vector of mixed signs or one with a
    Fraction coordinate."""
    if Fraction in map(type, v.coords):
        raise ValueError("cone rays must be integral vectors, with int coordinates")
    support = sum(1 << i for i, c in enumerate(v.coords) if c)
    values = set(v.coords)
    values.discard(0)
    if values == {-1}:
        return support
    if values == {1}:
        return ((1 << len(v.coords)) - 1) ^ support
    raise ValueError(
        "cone rays must be rays of nonempty proper edge sets, "
        "with coordinates all in {0, -1} or all in {0, 1}"
    )


def cone_of_rays(rays, weight=1, provenance=(), ambient=None) -> Cone:
    """The cone on the edge sets whose rays are ``rays`` (vectors, in any
    order, a repeat refused as not strictly nested), over their ambient or,
    for no rays, over ``ambient``."""
    rays = list(rays)
    if ambient is None:
        ambient = rays[0].ambient
    if any(r.ambient != ambient for r in rays):
        raise ValueError("rays over different ambient edge lists")
    return Cone(tuple(ambient), tuple(sorted(map(edge_mask, rays))), weight, provenance)


def make_cone(rays, weight=1, provenance=(), ambient=None) -> Cone:
    """``cone_of_rays`` of the distinct vectors among ``rays``."""
    return cone_of_rays(set(rays), weight, provenance, ambient)


def vector_cones(cones: dict) -> list[tuple]:
    """(ray coordinates, weight, provenance) of each cone of a {ray set:
    (weight, provenance)} dict, the rays sorted by coordinates and the cones
    by dimension and then by their rays: the order a fan keeps."""
    out = [
        (tuple(sorted(r.coords for r in rays)), weight, tuple(provenance))
        for rays, (weight, provenance) in cones.items()
    ]
    return sorted(out, key=lambda c: (len(c[0]), c[0]))


def proper_flats(g: Graph) -> list:
    """The nonempty flats other than the full edge set, in canonical
    order, filtered from ``flats_by_dedupe``."""
    full = g.full_edge_set().mask
    return [f for f in flats_by_dedupe(g) if f.mask not in (0, full)]


def pairwise_chain_walk(flats):
    """Every strictly increasing chain drawn from ``flats`` (flats of one
    graph, in canonical order), the empty chain first, lexicographic on
    that order: each flat's successors are found by testing it against
    every flat for a rise in rank and containment."""
    succ = [
        [j for j, b in enumerate(flats) if a.rank < b.rank and a.mask & ~b.mask == 0]
        for a in flats
    ]

    def extend(prefix, choices):
        for j in choices:
            chain = prefix + [j]
            yield chain
            yield from extend(chain, succ[j])

    yield ChainOfFlats(())
    for idxs in extend([], range(len(flats))):
        yield ChainOfFlats(tuple(flats[i] for i in idxs))


def ray_order(g: Graph, flats) -> list:
    """``flats`` (nonempty proper flats of g) sorted by the coordinates of
    their rays, ``ray_of_flat`` over g's edges."""
    return sorted(flats, key=lambda f: ray_of_flat(f, g.edges).coords)


def chains_in_cone_order(g: Graph, chains) -> list:
    """``chains`` (of flats of g) sorted into cone order: by length, and
    then by the ascending tuple of their flats' positions in ray order."""
    chains = list(chains)
    position = {f.mask: i for i, f in enumerate(ray_order(g, {f for c in chains for f in c}))}
    return sorted(chains, key=lambda c: (len(c), sorted(position[f.mask] for f in c)))


def vector_chain_fan(g: Graph, flats) -> dict:
    """One weight-one cone per chain of ``flats``, keyed by the ray set of
    its flats (``ray_of_flat`` over g's edges)."""
    return {
        frozenset(ray_of_flat(f, g.edges) for f in chain): (1, [chain])
        for chain in pairwise_chain_walk(flats)
    }


def vector_project_fan(cones: dict, gamma: Graph) -> dict:
    """The image of a ray-set keyed fan under ``project_vector``: zero
    images dropped, cones with one image merged, their fibers joined in the
    order of ``vector_cones``."""
    merged: dict = {}
    ordered = sorted(cones.items(), key=lambda item: (len(item[0]), sorted(r.coords for r in item[0])))
    for rays, (_, provenance) in ordered:
        image = frozenset(p for p in (project_vector(r, gamma) for r in rays) if not p.is_zero)
        merged.setdefault(image, (1, []))[1].extend(provenance)
    return merged
