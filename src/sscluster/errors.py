"""Shared exception types."""


class DegenerateInputError(ValueError):
    """Input is structurally valid but carries no usable signal (e.g. an
    all-zero connection matrix that cannot be degree-normalized)."""


class ResourceLimitError(ValueError):
    """A dense-storage or memory guard was exceeded."""
