"""Exception types shared across the package, the size limit behind
SizeLimitError, and the check of derived physical scales.

Plain ValueError is raised for malformed inputs (zero wave vector, a point
outside the box, a sigma that is not a half-integer, ...). The subclasses below
mark failure modes that callers are expected to distinguish programmatically.
"""

from ._lazy import np

__all__ = [
    "ResolutionError",
    "IncompleteBasisError",
    "ContradictionError",
    "SizeLimitError",
    "BYTES_LIMIT",
    "check_bytes",
    "check_scales",
]


class ResolutionError(ValueError):
    """Grid too coarse for the requested mode or operator."""


class IncompleteBasisError(ValueError):
    """A spectral sum would silently drop coupled states outside the cutoff."""


class ContradictionError(ValueError):
    """A phase constraint system admits no solution."""


class SizeLimitError(ValueError):
    """Requested object is past the supported size: n! terms, a count of
    steps past its stated limit, or more than BYTES_LIMIT bytes of arrays."""


# Largest working set, in bytes, that one table, set of modes, ensemble,
# field sample or quadrature may allocate. A quadrature holds one point per
# lattice phase, at most grid of them, so its estimate grows linearly in grid.
BYTES_LIMIT = 1 << 30


def check_bytes(what: str, estimate: int) -> None:
    """Raise SizeLimitError when `what` would need more than BYTES_LIMIT
    bytes; callers run this before allocating anything."""
    if estimate > BYTES_LIMIT:
        # the bytes show why an estimate that rounds to the limit is over it
        raise SizeLimitError(
            f"refusing {what}: it needs {estimate / 2**30:.1f} GiB ({estimate} bytes), "
            f"over the {BYTES_LIMIT / 2**30:.0f} GiB limit ({BYTES_LIMIT} bytes)"
        )


def check_scales(what: str, **scales) -> None:
    """Raise ValueError when a derived scale, a float or an array of them,
    is not a finite normal float (zero and subnormals lose every or some
    significant digit); `what` names the inputs it came from. Callers run
    this before any work, so inputs whose products overflow or underflow
    are refused instead of turning into NaN or failed verdicts."""
    for name, value in scales.items():
        value = np.asarray(value, dtype=float)
        bad = ~(np.isfinite(value) & (np.abs(value) >= np.finfo(float).tiny))
        if np.any(bad):
            raise ValueError(
                f"refusing {what}: its {name} is {float(value[bad][0])!r}, "
                "outside the range of normal floats"
            )
