"""Graphic matroids, Bergman fans in the chains-of-flats subdivision, and
moduli fans of radially aligned graphically stable tropical curves."""

from .bergman import (
    BalanceReport,
    Cone,
    Fan,
    QuotientVector,
    bergman_fan,
    fan_json_chunks,
    fans_equal,
    is_balanced,
    lattice_balanced,
    primitive_normal,
    project_fan,
    project_vector,
    ray_of_flat,
)
from .graphs import (
    EdgeSet,
    Graph,
    all_graphs,
    components,
    graph_rank,
    is_complete_multipartite,
    parse_graph,
    spanning_forest,
)
from .matroid import (
    AxiomReport,
    ChainOfFlats,
    Flat,
    FlatLattice,
    SetSystem,
    all_chains,
    bases,
    circuits,
    closure,
    closure_table,
    enumerate_flats,
    independent_sets,
    rank_table,
    verify_matroid_axioms,
)
from .tropmoduli import (
    InjectivityReport,
    MetricType,
    QnRelationsReport,
    QnVector,
    RadialType,
    TropicalType,
    caterpillar_cof,
    dist_vector,
    enumerate_types,
    flat_gamma_stable,
    is_gamma_stable,
    moduli_fan_rad,
    psi_cof_to_radial,
    psi_linear,
    psi_radial_to_cof,
    qn_relations_check,
    radial_alignments,
    radial_face_census,
    radial_faces,
    reduce,
    rho_split,
    star_type,
    tropical_type,
    verify_injectivity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
