import itertools

import pytest

from tropfan import ChainOfFlats, Cone, EdgeSet, Fan, Flat, Graph


@pytest.fixture
def k4():
    return Graph.complete([2, 3, 4, 5])


def flat_of(graph: Graph, edges) -> Flat:
    return Flat(EdgeSet.from_edges(graph, edges))


def clique_flat(graph: Graph, *blocks) -> Flat:
    edges = [e for b in blocks for e in itertools.combinations(sorted(b), 2)]
    return flat_of(graph, edges)


def chain_of(graph: Graph, *edge_lists) -> ChainOfFlats:
    return ChainOfFlats(tuple(flat_of(graph, edges) for edges in edge_lists))


def closed_fan(ambient, cones) -> Fan:
    """The fan of the given cones and every face of them; a face that is not
    among the given cones gets weight one.  A ``Fan`` takes each chain of
    edge masks once, so a face shared by several cones is built once."""
    ambient, cones = tuple(ambient), list(cones)
    faces = {c.masks: c for c in cones}
    for c in cones:
        for k in range(c.dim):
            for sub in itertools.combinations(c.masks, k):
                if sub not in faces:
                    faces[sub] = Cone(ambient, sub)
    return Fan(ambient, faces.values())


@pytest.fixture
def k4_flat_labels(k4):
    """The rank-one and rank-two flats of the complete graph on 2..5, under
    their conventional F_1..F_13 names."""
    return {
        1: flat_of(k4, [(2, 3)]),
        2: flat_of(k4, [(2, 4)]),
        3: flat_of(k4, [(3, 4)]),
        4: flat_of(k4, [(3, 5)]),
        5: flat_of(k4, [(4, 5)]),
        6: flat_of(k4, [(2, 5)]),
        7: flat_of(k4, [(2, 3), (2, 4), (3, 4)]),
        8: flat_of(k4, [(2, 3), (3, 5), (2, 5)]),
        9: flat_of(k4, [(3, 4), (3, 5), (4, 5)]),
        10: flat_of(k4, [(2, 4), (4, 5), (2, 5)]),
        11: flat_of(k4, [(2, 3), (4, 5)]),
        12: flat_of(k4, [(2, 4), (3, 5)]),
        13: flat_of(k4, [(2, 5), (3, 4)]),
    }


@pytest.fixture
def gamma_obstruction():
    """The complete graph on 2..5 with edges 3-5 and 4-5 removed."""
    return Graph.from_edges([(2, 3), (2, 4), (2, 5), (3, 4)])


@pytest.fixture
def gamma_bipartite():
    """The complete bipartite graph on 2..5 with parts {2,5} and {3,4}."""
    return Graph.from_edges([(2, 3), (2, 4), (3, 5), (4, 5)])
