"""Exception types shared across the package, and the limits behind
SizeLimitError with the one check against them.

Plain ValueError is raised for malformed inputs (zero wave vector, a point
outside the box, a sigma that is not a half-integer, ...). The subclasses below
mark failure modes that callers are expected to distinguish programmatically.
"""

__all__ = [
    "ResolutionError",
    "IncompleteBasisError",
    "ContradictionError",
    "SizeLimitError",
    "LIMITS",
    "refuse",
]


class ResolutionError(ValueError):
    """Grid too coarse for the requested mode or operator."""


class IncompleteBasisError(ValueError):
    """A spectral sum would silently drop coupled states outside the cutoff."""


class ContradictionError(ValueError):
    """A phase constraint system admits no solution."""


class SizeLimitError(ValueError):
    """Requested object is past one of LIMITS: bytes of arrays, or a count
    of work units such as zeta draws or particles."""


# The limit of each unit a run is refused past before any work starts; the
# times are measured on a 2-vCPU x86-64 host.
LIMITS = {
    # the arrays of one table, set of modes, ensemble, field sample or
    # quadrature (which holds one point per lattice phase, at most grid)
    "bytes": 1 << 30,
    # realizations x M of an ensemble: a 1 GiB zeta matrix, 2.2-2.4 s of Philox
    "zeta draws": 1 << 27,
    # a pair mean reads every realization, about 35 ns a row, and costs
    # 26-37 us more, as much as 1000 rows: a pair is charged at least 1000
    "pair rows": 10**8,
    # sample_fields takes about 15 ns a point and mode: about 1.5 s
    "mode evaluations": 10**8,
    # the zeeman --csv ramp takes about 50 us a field value: about 3 s
    "field values": 50000,
    # the antisymmetrizer's n! terms: slater with 8 labels takes about 0.5 s
    "particles": 8,
}


def refuse(cost) -> None:
    """Raise SizeLimitError at the first (what, unit, amount) line of `cost`
    whose amount passes LIMITS[unit]; callers run this before allocating
    anything, and it is plain arithmetic, so it loads no numpy."""
    for what, unit, amount in cost:
        limit = LIMITS[unit]
        if amount <= limit:
            continue
        if unit == "bytes":
            # the bytes show why an estimate that rounds to the limit is over it
            raise SizeLimitError(
                f"refusing {what}: it needs {amount / 2**30:.1f} GiB ({amount} bytes), "
                f"over the {limit / 2**30:.0f} GiB limit ({limit} bytes)"
            )
        raise SizeLimitError(f"refusing {what}: {amount} {unit}, over the limit of {limit}")

