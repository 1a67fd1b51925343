"""Community detection in large sparse networks by clustering a spectral
embedding computed from a small subsample of nodes.

The package re-exports nothing: import each name from the module that
defines it, e.g. ``from sscluster.sampling import srs``.
"""

__version__ = "0.1.0"
