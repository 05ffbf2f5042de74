"""sgspectra: spectra of signed graphs and their interlacing properties.

Core objects: SignedGraph (immutable edge-signed graph), the four matrices
(adjacency, Laplacian, net-Laplacian, normalized net-Laplacian), a
self-contained symmetric eigensolver with an exact characteristic-polynomial
oracle, graph surgeries, and one checker per interlacing inequality with a
seeded campaign runner.
"""

from .eigen import (
    charpoly_spectrum_oracle,
    closed_form_cycle_spectrum,
    closed_form_path_spectrum,
    determinant_oracle,
    eigenvalues,
    rayleigh,
)
from .fileio import (
    format_matrix,
    format_spectrum,
    parse_sg,
    read_sg,
    to_edge_string,
    to_sg_text,
    write_sg,
)
from .graphs import (
    MINUS,
    PLUS,
    CoRegularity,
    DegreeProfile,
    SignedGraph,
    all_positive,
    apply_switching,
    balancing_switch,
    build_graph,
    co_regularity,
    degree_profile,
    generate,
    is_balanced,
    is_connected,
    min_max_neg_degree,
    random_signed_graph,
    switching_equivalent,
)
from .matrices import (
    adjacency,
    laplacian,
    net_laplacian,
    normalized_net_laplacian,
    quad_form_laplacian,
    quad_form_net_laplacian,
    quad_form_normalized,
)
from .surgery import (
    add_edge,
    contract,
    delete_edge,
    delete_vertex,
    disjoint_open_neighborhoods,
    neighborhoods,
)
from .verify import (
    ARG_KINDS,
    CHECK_IDS,
    CHECKERS,
    CampaignConfig,
    CampaignResult,
    InterlacingReport,
    campaign_to_csv,
    campaign_to_json,
    check_chain,
    run_campaign,
)

__version__ = "0.1.0"
