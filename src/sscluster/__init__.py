"""Community detection in large sparse networks by clustering a spectral
embedding computed from a small subsample of nodes.

The names below are loaded from their modules on first use (PEP 562), so
importing the package, or one of its modules, loads no more than that
module needs.
"""

import importlib

# Exported name -> the module that defines it.
_HOMES = {
    name: module
    for module, names in {
        "errors": ("DegenerateInputError", "ResourceLimitError"),
        "graph": ("BiAdjacency", "SparseGraph", "bi_adjacency", "degrees",
                  "from_edge_list", "graph_from_file", "read_edge_list",
                  "write_edge_list"),
        # Not `kmeans`: exporting it would shadow the sscluster.kmeans module.
        "kmeans": ("KMeansResult", "kmeans_1d"),
        "metrics": ("misclustered_rate",),
        "sampling": ("SampleSet", "coverage_event", "dcs", "dcs_min_size",
                     "regularized_degrees", "srs", "srs_min_size"),
        "sbm": ("BlockMatrix", "block_matrix", "generate_adjacency",
                "sample_memberships"),
        "spectral": ("EigenSpectrum", "Embedding", "SubsampledLaplacian", "embed",
                     "full_embed", "full_laplacian", "gram", "select_k",
                     "subsampled_laplacian", "subsampled_spectrum",
                     "symmetric_eig"),
    }.items()
    for name in names
}
# Modules exported by name as well.
_MODULES = ("blas", "errors", "graph", "kmeans", "metrics", "sampling", "sbm",
            "spectral")

__version__ = "0.1.0"

__all__ = sorted([*_HOMES, *_MODULES])


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
