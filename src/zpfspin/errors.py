"""Exception types shared across the package, and the size limit behind
SizeLimitError.

Plain ValueError is raised for malformed inputs (zero wave vector, a point
outside the box, a sigma that is not a half-integer, ...). The subclasses below
mark failure modes that callers are expected to distinguish programmatically.
"""


class ResolutionError(ValueError):
    """Grid too coarse for the requested mode or operator."""


class IncompleteBasisError(ValueError):
    """A spectral sum would silently drop coupled states outside the cutoff."""


class ContradictionError(ValueError):
    """A phase constraint system admits no solution."""


class SizeLimitError(ValueError):
    """Requested object is past the supported size: n! terms, or more than
    BYTES_LIMIT bytes of arrays."""


# Largest working set, in bytes, that one table, ensemble, field sample or
# quadrature grid may allocate.
BYTES_LIMIT = 1 << 30


def check_bytes(what: str, estimate: int) -> None:
    """Raise SizeLimitError when `what` would need more than BYTES_LIMIT
    bytes; callers run this before allocating anything."""
    if estimate > BYTES_LIMIT:
        raise SizeLimitError(
            f"refusing {what}: it needs {estimate / 2**30:.1f} GiB, over the "
            f"{BYTES_LIMIT / 2**30:.0f} GiB limit"
        )
