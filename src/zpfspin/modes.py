"""Circularly polarized vacuum modes in a periodic box.

Wave vectors live on the lattice k = 2*pi*n/L with integer n != 0. Each mode
carries a polarization handedness gamma = +-1, a random global phase zeta and
a random polarization phase phi, entering through the unit amplitude
a = e^{i zeta} e^{i gamma phi}.

Field convention (fixed by requiring the closed-form mode observables below):
the vector potential of one mode is the real part of the complex carrier

    F(r, t) = sqrt(hbar / (V*omega)) * (-i) * eps_gamma * a * e^{i(k.r - omega t)}

with V = L^3, and

    A = Re F,    E = -dA/dt = -omega * Im F,    B = curl A = -k x Im F.

Energy density is (|E|^2 + c^2 |B|^2)/2, momentum density E x B, and the
angular momentum integrand E x A. Under this convention a single mode carries

    H = hbar*omega/2,    P = (hbar*omega / 2c) khat,    J = gamma*(hbar/2) khat,

which the quadrature in mode_observables verifies rather than assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._lazy import np
from .constants import NATURAL, PhysicalConstants
from .errors import ResolutionError, check_scales, refuse

__all__ = [
    "Modes",
    "ZpfRealization",
    "ModeObservables",
    "wave_vector",
    "make_mode",
    "mode_count",
    "mode_keys",
    "sample_realization",
    "sample_zeta_ensemble",
    "ensemble_cost",
    "modes_cost",
    "sample_fields",
    "check_mode_scales",
    "resolution_floor",
    "mode_observables",
    "quadrature_cost",
    "analytic_mode_observables",
    "realization_totals",
]

# Largest transient array, in doubles, that the field sum holds at once
# (8 MiB); larger requests are worked through in blocks.
_BLOCK_DOUBLES = 1 << 20

# 64-bit words the ensemble draws at once (512 KiB), unless one row of 2M
# is longer; a larger block adds resident memory and saves no time.
_DRAW_DOUBLES = 1 << 16


@dataclass(frozen=True, eq=False)
class Modes:
    """M modes as rows: lattice vectors n (M, 3) int, handedness gamma (M,)
    and the two phases zeta and phi (M,).

    Indexing with a slice or an index array gives the Modes of those rows;
    rows stay 2-D, so modes[:1] is the first mode and modes[0] is refused.
    The frequency omega = c |k| is derived where fields are evaluated, from
    the box and the constants in use there.
    """

    n: np.ndarray
    gamma: np.ndarray
    zeta: np.ndarray
    phi: np.ndarray

    def __len__(self) -> int:
        return len(self.gamma)

    def __getitem__(self, rows) -> Modes:
        if not isinstance(rows, slice) and np.ndim(rows) == 0:
            raise TypeError("index Modes with a slice or an index array, e.g. modes[:1]")
        return Modes(self.n[rows], self.gamma[rows], self.zeta[rows], self.phi[rows])

    @property
    def amplitude(self) -> np.ndarray:
        """a = e^{i zeta} e^{i gamma phi} per mode; unit modulus by construction."""
        return np.exp(1j * (self.zeta + self.gamma * self.phi))


@dataclass(frozen=True)
class ZpfRealization:
    L: float
    modes: Modes


@dataclass(frozen=True, eq=False)
class ModeObservables:
    """Energy H, momentum P and angular momentum J: of one mode or a total
    (a float and two 3-vectors), or of each of M modes from
    analytic_mode_observables ((M,), (M, 3) and (M, 3))."""

    H: float
    P: np.ndarray
    J: np.ndarray


def _triads(n: np.ndarray):
    """Right-handed orthonormal polarization frames e1, e2, e3 for each row
    of an (M, 3) float array of nonzero lattice vectors, as three (M, 3)
    arrays.

    e3 = khat; e1 is the coordinate axis h with the smallest |khat| component
    (ties broken in x, y, z order) projected orthogonal to khat and
    normalized; e2 = e3 x e1. Axis-aligned n therefore give axis-aligned
    frames, e.g. n = (0, 0, 1) -> (x, y, z).
    """
    e3 = n / np.sqrt(_row_dots(n, n))
    h = np.zeros_like(n)
    h[np.arange(len(n)), np.argmin(np.abs(e3), axis=1)] = 1.0
    e1 = h - _row_dots(h, e3) * e3
    e1 /= np.sqrt(_row_dots(e1, e1))
    return e1, np.cross(e3, e1), e3


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (M, 3) arrays, shape (M, 1)."""
    # A stacked (1, 3) @ (3, 1) product sums each row the way np.dot and
    # np.linalg.norm sum one vector, so the batched frames and frequencies
    # keep the bits of the one-mode ones; einsum or a sum over an axis moves
    # the last bit of about one row in ten.
    return (a[:, np.newaxis, :] @ b[:, :, np.newaxis])[:, 0]


def _polarizations(e1: np.ndarray, e2: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Complex unit polarization vectors eps_gamma, with
    eps_gamma* . eps_gamma' = delta, for each row of (M, 3) frame vectors
    and (M,) gamma = +-1."""
    plus = (e1 + 1j * e2) / np.sqrt(2.0)
    minus = 1j * (e1 - 1j * e2) / np.sqrt(2.0)
    return np.where((gamma == 1)[:, np.newaxis], plus, minus)


def wave_vector(n, L: float) -> np.ndarray:
    return 2.0 * np.pi * np.asarray(n, dtype=float) / L


def make_mode(n, gamma: int, zeta: float, phi: float, L: float) -> Modes:
    """The one-row Modes of a single mode, its inputs validated."""
    n = tuple(int(c) for c in n)
    if len(n) != 3:
        raise ValueError("wave-vector index must be a 3-vector")
    if n == (0, 0, 0):
        raise ValueError("zero wave vector is not a mode")
    if gamma not in (1, -1):
        raise ValueError(f"polarization index must be +1 or -1, got {gamma!r}")
    if not L > 0:
        raise ValueError("box size must be positive")
    return Modes(
        np.array([n]), np.array([int(gamma)]), np.array([float(zeta)]), np.array([float(phi)])
    )


def mode_count(n_max: int) -> int:
    """M = 2((2 n_max + 1)^3 - 1), the number of modes with
    0 < |n|_inf <= n_max."""
    if int(n_max) != n_max or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    return 2 * ((2 * int(n_max) + 1) ** 3 - 1)


def mode_keys(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Lattice vectors n (M, 3) and polarization indices gamma (M,) of all
    modes with 0 < |n|_inf <= n_max: n ascending, each n with gamma = +1,
    then -1."""
    mode_count(n_max)  # validates n_max
    axis = np.arange(-int(n_max), int(n_max) + 1)
    n = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
    n = n[np.any(n, axis=1)]
    return np.repeat(n, 2, axis=0), np.tile([1, -1], len(n))


def _mode_scales(n: np.ndarray, L: float, constants: PhysicalConstants):
    """Wave vectors k (M, 3), frequencies omega (M,) and carrier prefactors
    (M,) of lattice vectors n (M, 3). Raises ValueError when the volume
    V = L^3, a frequency, a prefactor, its radicand hbar / (V omega) or the
    denominator V omega is not a finite normal float (a subnormal radicand
    or denominator has lost digits that the square root does not show)."""
    with np.errstate(all="ignore"):
        k = wave_vector(n, L)
        volume = np.float64(L) ** 3
        omega = constants.c * np.sqrt(_row_dots(k, k))[:, 0]
        volume_omega = volume * omega
        radicand = constants.hbar / volume_omega
        prefactor = np.sqrt(radicand)
    check_scales(
        f"modes in a box of edge {L:g}",
        volume=volume, omega=omega, prefactor=prefactor, radicand=radicand,
        volume_omega=volume_omega,
    )
    return k, omega, prefactor


def check_mode_scales(
    L: float, n_max: int, constants: PhysicalConstants = NATURAL, t: float = 0.0
) -> None:
    """Raise ValueError when the volume, a frequency, a carrier prefactor,
    its radicand hbar / (V omega) or the denominator V omega of a mode with
    0 < |n|_inf <= n_max, or the largest phase omega t at time t (floored at
    1), is not a finite normal float.

    Frequencies and V omega grow and prefactors and radicands shrink with
    |n|, so the shortest and the longest lattice vectors stand for every
    mode in between.
    """
    _, omega, _ = _mode_scales(np.array([[0, 0, 1], [n_max] * 3], dtype=float), L, constants)
    omega_max = float(omega[1])
    check_scales(
        f"a time of {t:g} at frequencies up to {omega_max:g}",
        phase=max(omega_max * abs(t), 1.0),
    )


def sample_realization(L: float, n_max: int, seed) -> ZpfRealization:
    """Draw one realization: i.i.d. uniform zeta and phi for every mode.

    The same seed always produces the same realization. seed is anything
    np.random.default_rng accepts: an int or a SeedSequence (drawn through
    PCG64), or a bit generator, which is drawn from where it stands. The
    zetas of all modes come first in the stream, then the phis;
    np.random.Philox(s).advance(i * M // 2), M being the mode count, gives
    realization i of sample_zeta_ensemble(n_max, count, s). Raises
    SizeLimitError, before any mode array is built, past modes_cost.
    """
    if not L > 0:
        raise ValueError("box size must be positive")
    refuse(modes_cost(n_max))
    n, gamma = mode_keys(n_max)
    rng = np.random.default_rng(seed)
    # zeta block first, then phi block; the ensemble sampler relies on this order
    zetas = rng.uniform(0.0, 2.0 * np.pi, len(gamma))
    phis = rng.uniform(0.0, 2.0 * np.pi, len(gamma))
    return ZpfRealization(L=float(L), modes=Modes(n, gamma, zetas, phis))


def sample_zeta_ensemble(n_max: int, count: int, seed: int, columns):
    """The zetas of the modes `columns` in `count` independent realizations,
    drawn from one Philox stream.

    Realization i owns the i-th block of 2M uniforms of the stream of
    np.random.Philox(seed), M being the mode count: its M zetas, then its M
    phis, the order sample_realization draws them in.
    M is even and Philox yields four 64-bit words per counter, so a block is
    M/2 counters, and row i holds exactly those columns of the zeta block of
    sample_realization(L, n_max, np.random.Philox(seed).advance(i * M // 2)).
    The stream is drawn as raw 64-bit words w, a block of _DRAW_DOUBLES (or
    one row, if longer) at a time; only `columns`, mode indices in [0, M) in
    any order and with repeats, keep their w >> 11, scaled once by 2 pi
    2^-53, as rng.uniform(0, 2 pi) rounds 2 pi (w >> 11) 2^-53 (a power of
    two scales exactly). Returns (mode_keys(n_max), zetas) with
    zetas of shape (count, len(columns)), each column contiguous in memory.
    Raises SizeLimitError, before any mode array is built, past
    ensemble_cost.
    """
    if count < 1:
        raise ValueError("ensemble size must be at least 1")
    refuse(ensemble_cost(n_max, count, len(columns)))
    keys = mode_keys(n_max)
    m = len(keys[1])
    columns = np.asarray(columns, dtype=np.intp)
    if columns.ndim != 1 or np.any((columns < 0) | (columns >= m)):
        raise ValueError(f"columns must be a sequence of mode indices in [0, {m})")
    bits = np.random.Philox(seed)
    rows = max(1, _DRAW_DOUBLES // (2 * m))
    kept = np.empty((len(columns), count))
    for start in range(0, count, rows):
        block = min(rows, count - start)
        words = bits.random_raw(block * 2 * m).reshape(block, 2 * m)[:, columns]
        kept[:, start : start + block] = (words >> 11).T
    kept *= 2.0 * np.pi / 2**53
    return keys, kept.T


# Peak bytes per mode that a run holds besides its kept zeta columns, the
# largest over the runs that draw modes (tracemalloc at n_max 8 to 12): a
# field-sample run 745, mostly the field weights of sample_fields; totals
# 312; an ensemble draw 48 from n_max 10 on, the mode keys and a draw block
# of one row (below that a block is up to 512 KiB).
_BYTES_PER_MODE = 760


def modes_cost(n_max: int) -> list:
    """The errors.refuse cost of the modes with 0 < |n|_inf <= n_max, in
    bytes; plain arithmetic, so nothing is allocated."""
    modes = mode_count(n_max)
    return [(f"a realization of {modes} modes", "bytes", _BYTES_PER_MODE * modes)]


def ensemble_cost(n_max: int, count: int, columns: int) -> list:
    """The errors.refuse cost of an ensemble of `count` realizations of the
    modes with 0 < |n|_inf <= n_max: the modes, the `columns` kept zeta
    columns and a block of drawn rows with its copy of them (8 bytes a
    value), and its count x M zeta draws, made whichever columns are kept."""
    modes = mode_count(n_max)
    rows = min(count, max(1, _DRAW_DOUBLES // (2 * modes)))
    return modes_cost(n_max) + [
        (f"{columns} zeta columns of {count} realizations", "bytes", 8 * count * columns),
        (f"an ensemble of {count} realizations of {modes} modes", "zeta draws", count * modes),
        (f"a draw block of {rows} realizations", "bytes", 8 * rows * (2 * modes + columns)),
    ]


def sample_fields(
    real: ZpfRealization, points, t: float, constants: PhysicalConstants = NATURAL
):
    """Total A, E, B at an array of points (..., 3) inside the box.

    Mode by mode, X = Re(w_X e^{i theta}) = cos(theta) Re w_X - sin(theta)
    Im w_X with theta = k.r - omega t, and with w_A = f eps,
    w_E = i omega f eps and w_B = i f (k x eps), f being the carrier's
    constant factor -i sqrt(hbar / (V omega)) a. The sum over the M modes is
    then one real product [cos theta, sin theta] @ W, W of shape (2M, 9),
    taken over blocks of points.
    """
    points = np.asarray(points, dtype=float)
    if points.shape[-1] != 3:
        raise ValueError("points must have a trailing axis of length 3")
    if np.any(points < 0.0) or np.any(points >= real.L):
        raise ValueError("evaluation points must lie in [0, L)^3")
    flat = points.reshape(-1, 3)
    fields = np.zeros((len(flat), 9))
    if len(real.modes):
        n = real.modes.n.astype(float)
        e1, e2, _ = _triads(n)
        eps = _polarizations(e1, e2, real.modes.gamma)
        k, omega, prefactor = _mode_scales(n, real.L, constants)
        amplitude = real.modes.amplitude
        w_a = (prefactor * (-1j) * amplitude)[:, np.newaxis] * eps
        w_e = 1j * omega[:, np.newaxis] * w_a
        # w_B = i f (k x eps) with i f = sqrt(hbar / (V omega)) a; B is built
        # from k x eps, not from B = gamma |k| A, which field-sample checks
        w_b = (prefactor * amplitude)[:, np.newaxis] * np.cross(k, eps)
        w = np.concatenate([w_a, w_e, w_b], axis=1)
        weights = np.concatenate([w.real, -w.imag])
        rows = max(1, _BLOCK_DOUBLES // len(weights))
        for start in range(0, len(flat), rows):
            theta = flat[start : start + rows] @ k.T - omega * t
            fields[start : start + rows] = (
                np.hstack([np.cos(theta), np.sin(theta)]) @ weights
            )
    fields = fields.reshape(points.shape[:-1] + (9,))
    return fields[..., 0:3], fields[..., 3:6], fields[..., 6:9]


def resolution_floor(n) -> int:
    """Minimum per-axis grid points for reliable quadrature of mode n."""
    return 4 * max(max(abs(int(c)) for c in n), 1)


def _extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = a x + b y, for integers a, b >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def _phase_step(n, grid: int) -> tuple[int, tuple[int, int, int]]:
    """d = gcd(n1, n2, n3, grid) and an integer vector u in [0, grid)^3 with
    n.u = d (mod grid), for any integer components of n."""
    d, u = grid, [0, 0, 0]
    for axis, component in enumerate(n):
        # keeps d = n.u (mod grid) while d shrinks to the gcd
        d, x, y = _extended_gcd(d, int(component) % grid)
        u = [x * v for v in u]
        u[axis] += y
    return d, tuple(v % grid for v in u)


def mode_observables(
    mode: Modes,
    L: float,
    grid: int,
    constants: PhysicalConstants = NATURAL,
    t: float = 0.0,
) -> ModeObservables:
    """H, P, J of a one-row Modes by trapezoidal quadrature on the periodic
    grid.

    With periodic sampling at grid^3 points j L / grid the trapezoidal rule
    reduces to the grid mean times the volume. One mode's integrands depend
    on the point only through theta = 2 pi (n.j) / grid - omega t, and
    j -> n.j mod grid maps Z_grid^3 onto the multiples of
    d = gcd(n1, n2, n3, grid) with grid^2 d points in every fibre. So the
    grid mean equals, exactly, the mean over the grid / d points
    j_m = m u mod grid, m = 0 .. grid/d - 1, one per fibre, where
    n.u = d (mod grid). The periodic trapezoidal rule is spectrally exact for
    these band-limited integrands once grid >= resolution_floor(n)
    (Trefethen & Weideman, "The exponentially convergent trapezoidal rule",
    SIAM Review 56, 2014).
    """
    if len(mode) != 1:
        raise ValueError(f"mode_observables takes one mode, got {len(mode)}")
    n = tuple(mode.n[0].tolist())
    grid = int(grid)
    refuse(quadrature_cost(grid))
    floor = resolution_floor(n)
    if grid < floor:
        raise ResolutionError(f"grid {grid} is below the resolution floor {floor} for n={n}")
    _, omega, _ = _mode_scales(mode.n.astype(float), L, constants)
    V = np.float64(L) ** 3
    d, step = _phase_step(n, grid)
    phases = grid // d
    with np.errstate(all="ignore"):
        density = constants.hbar * omega / V
        momentum_density = density / constants.c
        spin_density = constants.hbar / V
        # each mean first sums its grid / d integrands, each about half its
        # density (halved first: density * phases would overflow too early)
        energy_sum = density / 2 * phases
        momentum_sum = momentum_density / 2 * phases
        spin_sum = spin_density / 2 * phases
    # the integrands are of the size of the energy density hbar omega / V,
    # E x B of the momentum density hbar omega / (c V) and E x A of the spin
    # density hbar / V
    check_scales(
        f"a quadrature in a box of edge {L:g}",
        energy_density=density, momentum_density=momentum_density, spin_density=spin_density,
        energy_sum=energy_sum, momentum_sum=momentum_sum, spin_sum=spin_sum,
    )
    lattice = np.arange(phases)[:, np.newaxis] * np.array(step) % grid
    points = lattice * (L / grid)
    A, E, B = sample_fields(ZpfRealization(L, mode), points, t, constants)
    # (c B)^2, not c^2 |B|^2: c^2 leaves the float range long before c B does
    u = 0.5 * (np.sum(E * E, axis=-1) + np.sum(np.square(constants.c * B), axis=-1))
    H = float(np.mean(u) * V)
    P = np.mean(np.cross(E, B), axis=0) * V
    J = np.mean(np.cross(E, A), axis=0) * V
    return ModeObservables(H=H, P=P, J=J)


# Bytes mode_observables allocates per lattice phase, a ceiling on its peak:
# the points, the phases, their cosines and sines, the three fields and the
# cross products (tracemalloc measures 218 at grid 4096, 216 at 65536 and
# 208 at 2^20 with d = 1).
_QUADRATURE_BYTES_PER_PHASE = 232
# Peak bytes of a mode-observables run past 232 a phase, whatever its grid:
# its modes, small arrays and report (tracemalloc, at most 20 KB, at grid 4
# to 64; from grid 1024 on a run peaks below 232 a phase).
_QUADRATURE_BYTES_PER_RUN = 32 << 10


def quadrature_cost(grid: int) -> list:
    """The errors.refuse cost of mode_observables at `grid` points per
    axis, which holds grid / d <= grid lattice phases."""
    nbytes = _QUADRATURE_BYTES_PER_PHASE * grid + _QUADRATURE_BYTES_PER_RUN
    return [(f"a quadrature over up to {grid} lattice phases", "bytes", nbytes)]


def analytic_mode_observables(
    modes: Modes, L: float, constants: PhysicalConstants = NATURAL
) -> ModeObservables:
    """Closed-form observables of each of M modes under the module's field
    convention: H (M,), P (M, 3) and J (M, 3). Raises ValueError when an
    energy hbar omega / 2 or a momentum hbar omega / (2c) is not a finite
    normal float (an infinite |P| times a zero component of khat is NaN)."""
    k = wave_vector(modes.n, L)
    norm = np.sqrt(_row_dots(k, k))
    khat = k / norm
    omega = constants.c * norm[:, 0]
    with np.errstate(all="ignore"):
        H = constants.hbar * omega / 2.0
        momentum = constants.hbar * omega / (2.0 * constants.c)
    check_scales(f"modes in a box of edge {L:g}", energy=H, momentum=momentum)
    P = momentum[:, np.newaxis] * khat
    J = (modes.gamma * (constants.hbar / 2.0))[:, np.newaxis] * khat
    return ModeObservables(H=H, P=P, J=J)


def realization_totals(
    real: ZpfRealization, constants: PhysicalConstants = NATURAL
) -> ModeObservables:
    """Sum of per-mode analytic observables.

    Modes are accumulated in an order that places exactly cancelling partners
    adjacently (n with -n, gamma with -gamma), so totals over sets closed
    under those reflections vanish exactly in floating point, not just to
    rounding: by canon = max(n, -n), then n == canon first, then gamma = +1
    first, one after another from zero. Raises ValueError when the total
    energy of a nonempty set is not a finite normal float: each mode's
    energy is checked, but their sum can overflow.
    """
    modes = real.modes
    obs = analytic_mode_observables(modes, real.L, constants)
    first = modes.n[np.arange(len(modes)), np.argmax(modes.n != 0, axis=1)]
    canon = modes.n * np.sign(first)[:, np.newaxis]
    order = np.lexsort((-modes.gamma, first < 0, canon[:, 2], canon[:, 1], canon[:, 0]))
    rows = np.concatenate([obs.H[:, np.newaxis], obs.P, obs.J], axis=1)[order]
    with np.errstate(over="ignore"):
        total = np.add.accumulate(np.concatenate([np.zeros((1, 7)), rows]))[-1]
    if len(modes):
        check_scales(f"{len(modes)} modes in a box of edge {real.L:g}", total_energy=total[0])
    return ModeObservables(H=float(total[0]), P=total[1:4], J=total[4:7])
