"""Community detection in large sparse networks by clustering a spectral
embedding computed from a small subsample of nodes."""

from .errors import DegenerateInputError, ResourceLimitError
from .graph import (
    BiAdjacency,
    SparseGraph,
    bi_adjacency,
    degrees,
    from_edge_list,
    graph_from_file,
    read_edge_list,
    write_edge_list,
)
# Not `kmeans`: re-exporting it would shadow the sscluster.kmeans module.
from .kmeans import KMeansResult, kmeans_1d
from .metrics import confusion, misclustered_rate
from .sampling import (
    SampleSet,
    coverage_event,
    dcs,
    dcs_min_size,
    regularized_degrees,
    srs,
    srs_min_size,
)
from .sbm import (
    BlockMatrix,
    block_matrix,
    generate_adjacency,
    sample_memberships,
)
from .spectral import (
    EigenSpectrum,
    Embedding,
    SubsampledLaplacian,
    embed,
    full_embed,
    full_laplacian,
    gram,
    select_k,
    subsampled_laplacian,
    subsampled_spectrum,
    symmetric_eig,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
