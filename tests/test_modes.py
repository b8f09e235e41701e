"""Box modes: geometry, field synthesis, quadrature observables, totals.

The field oracle below is written out in plain trigonometry, independent of
the library's complex-carrier bookkeeping, so a sign slip in either place
shows up as a mismatch. The library and every oracle here are in natural
units, hbar = c = 1 with the box edge as the unit of length, as are the
CLI's reports.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zpfspin import modes
from zpfspin.cli import main
from zpfspin.errors import ResolutionError, SizeLimitError, refuse
from zpfspin.modes import (
    ModeObservables,
    Modes,
    ZpfRealization,
    analytic_mode_observables,
    make_mode,
    mode_keys,
    mode_observables,
    realization_totals,
    resolution_floor,
    sample_fields,
    sample_realization,
    sample_zeta_ensemble,
    wave_vector,
)

def stack(*parts):
    """One Modes holding the rows of each part, in order."""
    fields = ("n", "gamma", "zeta", "phi")
    return Modes(*(np.concatenate([getattr(p, f) for p in parts]) for f in fields))


def row(obs, i):
    """Mode i of per-mode observables."""
    return ModeObservables(H=obs.H[i], P=obs.P[i], J=obs.J[i])

nonzero_triples = st.tuples(
    st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5)
).filter(lambda n: any(n))


# --- frames and polarization --------------------------------------------------


def triad(n):
    """The library's frame for one lattice vector n, as three 3-vectors."""
    return tuple(e[0] for e in modes._triads(np.array([n], dtype=float)))


def polarization(n, gamma):
    e1, e2, _ = modes._triads(np.array([n], dtype=float))
    return modes._polarizations(e1, e2, np.array([gamma]))[0]


def oracle_triad(n):
    """The frame rule written out one vector at a time: e3 = khat, e1 the
    coordinate axis with the smallest |khat| component (first such in x, y,
    z order) made orthogonal to khat and normalized, e2 = e3 x e1."""
    e3 = np.array(n, dtype=float) / math.sqrt(sum(c * c for c in n))
    axis = min(range(3), key=lambda a: abs(e3[a]))
    h = np.eye(3)[axis]
    e1 = h - (h @ e3) * e3
    e1 /= np.linalg.norm(e1)
    return e1, np.cross(e3, e1), e3


def oracle_polarization(n, gamma):
    e1, e2, _ = oracle_triad(n)
    if gamma == 1:
        return (e1 + 1j * e2) / math.sqrt(2)
    return 1j * (e1 - 1j * e2) / math.sqrt(2)


def test_triad_axis_aligned():
    e1, e2, e3 = triad((0, 0, 1))
    assert np.allclose(e3, [0, 0, 1])
    assert np.allclose(e1, [1, 0, 0])
    assert np.allclose(e2, [0, 1, 0])


def test_triad_diagonal():
    e1, e2, e3 = triad((1, 1, 0))
    s = 1 / math.sqrt(2)
    assert np.allclose(e3, [s, s, 0])
    assert np.allclose(e1, [0, 0, 1])
    assert np.allclose(e2, [s, -s, 0])


@given(nonzero_triples)
def test_triad_orthonormal_right_handed(n):
    basis = np.stack(triad(n))
    assert np.max(np.abs(basis @ basis.T - np.eye(3))) < 1e-14
    assert np.linalg.det(basis) == pytest.approx(1.0, abs=1e-14)
    khat = np.array(n, dtype=float)
    khat /= np.linalg.norm(khat)
    assert np.max(np.abs(basis[2] - khat)) < 1e-14
    for got, want in zip(basis, oracle_triad(n)):
        assert np.max(np.abs(got - want)) < 1e-14


@given(nonzero_triples)
def test_polarization_vectors_unitary(n):
    _, _, e3 = triad(n)
    eps = {g: polarization(n, g) for g in (1, -1)}
    for g in (1, -1):
        assert abs(np.vdot(eps[g], eps[g]) - 1.0) < 1e-14
        assert abs(np.dot(eps[g], e3)) < 1e-14
        assert np.max(np.abs(eps[g] - oracle_polarization(n, g))) < 1e-14
    assert abs(np.vdot(eps[1], eps[-1])) < 1e-14


# --- closed-form field oracle -------------------------------------------------


def oracle_fields(n, gamma, zeta, phi, r, t):
    """Hand-expanded A, E, B for one mode, real trigonometry only, on the
    test's own frame."""
    e1, e2, _ = oracle_triad(n)
    k = wave_vector(n)
    knorm = np.linalg.norm(k)
    # hbar = c = 1 in a box of volume 1
    omega = knorm
    amp = math.sqrt(1 / omega)
    psi = float(k @ r) - omega * t + zeta + gamma * phi
    c, s = math.cos(psi), math.sin(psi)
    root = amp / math.sqrt(2)
    if gamma == 1:
        A = root * (e1 * s + e2 * c)
        E = omega * root * (e1 * c - e2 * s)
    else:
        A = root * (e1 * c + e2 * s)
        E = omega * root * (-e1 * s + e2 * c)
    B = gamma * knorm * A
    return A, E, B


@pytest.mark.parametrize("n", [(0, 0, 1), (1, -2, 3)])
@pytest.mark.parametrize("gamma", [1, -1])
def test_fields_match_oracle(n, gamma):
    mode = make_mode(n, gamma, 0.7, 2.1)
    rng = np.random.default_rng(5)
    for _ in range(6):
        r = rng.uniform(0, 1, 3)
        t = rng.uniform(0, 3)
        fields = sample_fields(ZpfRealization(mode), r[np.newaxis], t)
        for got, want in zip(fields, oracle_fields(n, gamma, 0.7, 2.1, r, t)):
            assert np.max(np.abs(got[0] - want)) < 1e-13


def test_fields_transverse_and_circular():
    mode = make_mode((2, 1, -1), -1, 1.2, 0.4)
    k = wave_vector(mode.n[0])
    khat = k / np.linalg.norm(k)
    pts = np.random.default_rng(0).uniform(0, 1, (40, 3))
    A, E, B = sample_fields(ZpfRealization(mode), pts, 0.25)
    assert np.max(np.abs(A @ khat)) < 1e-13
    assert np.max(np.abs(E @ khat)) < 1e-13
    assert np.max(np.abs(B - mode.gamma[0] * np.linalg.norm(k) * A)) < 1e-12


def test_fields_sum_linearly():
    m1 = make_mode((0, 1, 0), 1, 0.3, 1.0)
    m2 = make_mode((1, 0, 1), -1, 2.2, 0.1)
    pts = np.random.default_rng(1).uniform(0, 1, (10, 3))
    pair = stack(m1, m2)
    one = sample_fields(ZpfRealization(pair[:1]), pts, 0.5)
    two = sample_fields(ZpfRealization(pair[1:]), pts, 0.5)
    both = sample_fields(ZpfRealization(pair), pts, 0.5)
    for got, a, b in zip(both, one, two):
        assert np.max(np.abs(got - (a + b))) < 1e-13


def loop_fields(real, points, t):
    """The per-mode sum: one complex carrier per mode, added mode by mode."""
    shape = points.shape[:-1] + (3,)
    A, E, B = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    modes = real.modes
    for n, gamma, zeta, phi in zip(modes.n.tolist(), modes.gamma, modes.zeta, modes.phi):
        eps = oracle_polarization(n, gamma)
        k = wave_vector(n)
        omega = float(np.linalg.norm(k))
        theta = points @ k - omega * t
        carrier = (
            np.sqrt(1 / omega)
            * (-1j)
            * cmath.exp(1j * (zeta + gamma * phi))
            * np.exp(1j * theta)
        )
        F = carrier[..., np.newaxis] * eps
        A += F.real
        E += -omega * F.imag
        B += -np.cross(np.broadcast_to(k, F.imag.shape), F.imag)
    return A, E, B


def _realization(n_max):
    if n_max == "empty":
        return ZpfRealization(make_mode((0, 0, 1), 1, 0.0, 0.0)[:0])
    if n_max == "one mode":
        return ZpfRealization(make_mode((1, -2, 3), -1, 0.7, 2.1))
    return sample_realization(n_max, 17)


@pytest.mark.parametrize("n_max", ["empty", "one mode", 1, 2, 3])
def test_fields_match_mode_loop(n_max):
    real = _realization(n_max)
    pts = np.random.default_rng(2).uniform(0, 1, (4, 5, 3))
    got = sample_fields(real, pts, 0.37)
    for field, ref in zip(got, loop_fields(real, pts, 0.37)):
        assert field.shape == (4, 5, 3)
        assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_fields_match_mode_loop_across_point_blocks():
    real = sample_realization(2, 5)
    per_block = modes._BLOCK_DOUBLES // (2 * len(real.modes))
    pts = np.random.default_rng(3).uniform(0, 1, (per_block + 7, 3))
    got = sample_fields(real, pts, 1.5)
    for field, ref in zip(got, loop_fields(real, pts, 1.5)):
        assert np.max(np.abs(field - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_empty_realization_is_dark():
    empty = ZpfRealization(make_mode((0, 0, 1), 1, 0.0, 0.0)[:0])
    for field in sample_fields(empty, np.zeros((1, 3)), 0.0):
        assert field.shape == (1, 3)
        assert not np.any(field)


def test_points_must_lie_in_box():
    real = ZpfRealization(make_mode((0, 0, 1), 1, 0.0, 0.0))
    with pytest.raises(ValueError):
        sample_fields(real, np.array([[1.0, 0.0, 0.0]]), 0.0)
    with pytest.raises(ValueError):
        sample_fields(real, np.array([[0.0, -0.1, 0.0]]), 0.0)


# --- quadrature observables ---------------------------------------------------


def test_analytic_observables_closed_form():
    mode = make_mode((1, -2, 3), -1, 0.9, 1.7)
    obs = analytic_mode_observables(mode)
    assert (obs.H.shape, obs.P.shape, obs.J.shape) == ((1,), (1, 3), (1, 3))
    k = wave_vector(mode.n[0])
    khat = k / np.linalg.norm(k)
    omega = np.linalg.norm(k)
    assert obs.H[0] == pytest.approx(omega / 2, rel=1e-15)
    assert np.allclose(obs.P[0], omega / 2 * khat, rtol=1e-15)
    assert np.allclose(obs.J[0], -khat / 2, rtol=1e-15)


@pytest.mark.parametrize("n,gamma", [((0, 0, 1), 1), ((1, 2, -1), -1), ((2, 2, 2), 1)])
def test_quadrature_matches_analytic(n, gamma):
    mode = make_mode(n, gamma, 1.1, 0.6)
    grid = max(16, resolution_floor(n))
    obs = mode_observables(mode, grid)
    ref = row(analytic_mode_observables(mode), 0)
    assert obs.H == pytest.approx(ref.H, rel=1e-9)
    assert np.max(np.abs(obs.P - ref.P)) < 1e-9 * np.linalg.norm(ref.P)
    assert np.max(np.abs(obs.J - ref.J)) < 1e-9 * np.linalg.norm(ref.J)


def test_observables_ignore_phases():
    base = None
    for zeta, phi in [(0.0, 0.0), (1.3, 2.9), (5.1, 0.2)]:
        mode = make_mode((1, 0, 2), 1, zeta, phi)
        obs = mode_observables(mode, 16)
        if base is None:
            base = obs
            continue
        assert abs(obs.H - base.H) < 1e-12
        assert np.max(np.abs(obs.P - base.P)) < 1e-12
        assert np.max(np.abs(obs.J - base.J)) < 1e-12


def test_observables_stable_under_grid_doubling():
    mode = make_mode((1, 1, 0), -1, 0.4, 1.9)
    coarse = mode_observables(mode, 8)
    fine = mode_observables(mode, 16)
    assert abs(coarse.H - fine.H) < 1e-10 * fine.H


def grid_oracle(mode, grid, t):
    """H, P, J as the trapezoid mean over all grid^3 points of the box."""
    axis = np.arange(grid) / grid
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    points = np.stack([X, Y, Z], axis=-1)
    A, E, B = sample_fields(ZpfRealization(mode), points, t)
    u = 0.5 * (np.sum(E * E, axis=-1) + np.sum(B * B, axis=-1))
    H = float(np.mean(u))
    P = np.mean(np.cross(E, B).reshape(-1, 3), axis=0)
    J = np.mean(np.cross(E, A).reshape(-1, 3), axis=0)
    return H, P, J


@pytest.mark.parametrize(
    "n,grid",
    [
        ((1, -2, 3), 12),
        ((1, 1, 0), 8),
        ((0, 0, 2), 8),
        ((2, 2, 0), 8),
        ((0, 0, 3), 12),
        ((2, 2, 2), 12),
        ((0, 0, 4), 16),
        ((4, -4, 2), 16),
        ((-3, 1, 2), 16),
    ],
)
@pytest.mark.parametrize("gamma", [1, -1])
def test_quadrature_matches_full_grid(n, grid, gamma):
    # one point per fibre of j -> n.j mod grid carries the whole grid^3 mean;
    # one circular mode's integrands are constant in space, so this pins the
    # weights, and the fibre and congruence tests below pin the points
    mode = make_mode(n, gamma, 0.9, 1.7)
    H, P, J = grid_oracle(mode, grid, 0.37)
    obs = mode_observables(mode, grid, t=0.37)
    assert abs(obs.H - H) <= 1e-12 * abs(H)
    assert np.max(np.abs(obs.P - P)) <= 1e-12 * np.linalg.norm(P)
    assert np.max(np.abs(obs.J - J)) <= 1e-12 * np.linalg.norm(J)


@pytest.mark.parametrize("grid", [8, 12, 16])
@pytest.mark.parametrize(
    "n", [(0, 0, 1), (0, 0, 2), (2, 2, 0), (0, 0, 3), (2, 2, 2), (0, 0, 4), (4, -4, 2), (1, -2, 3)]
)
def test_every_fibre_holds_grid_squared_times_d_points(n, grid):
    d = math.gcd(*n, grid)
    j = np.stack(np.meshgrid(*[np.arange(grid)] * 3, indexing="ij"), axis=-1)
    counts = np.bincount(((j @ np.array(n)) % grid).ravel(), minlength=grid)
    assert np.count_nonzero(counts) == grid // d
    assert set(counts[counts > 0]) == {grid * grid * d}
    assert modes._phase_step(n, grid)[0] == d


@given(
    st.tuples(st.integers(-40, 40), st.integers(-40, 40), st.integers(-40, 40)),
    st.integers(1, 200),
)
def test_phase_step_solves_the_congruence(n, grid):
    d, u = modes._phase_step(n, grid)
    assert d == math.gcd(*n, grid)
    assert all(0 <= v < grid for v in u)
    assert (n[0] * u[0] + n[1] * u[1] + n[2] * u[2] - d) % grid == 0


def test_quadrature_holds_one_point_per_phase(monkeypatch):
    # the grid^3 oracle cannot tell which points were summed; this pins them:
    # n.j mod grid runs over 0, d, ..., grid - d, each phase once
    seen = []

    def spy(real, points, t):
        seen.append(points)
        return sample_fields(real, points, t)

    monkeypatch.setattr(modes, "sample_fields", spy)
    cases = [
        ((2, 4, -6), 4096),
        ((1, -2, 3), 12),
        ((-3, 1, 2), 16),
        ((0, 0, 1), 8),
        ((0, 0, 2), 8),
        ((2, 2, 2), 12),
        ((0, 0, 3), 12),
        ((4, -4, 2), 16),
    ]
    for n, grid in cases:
        seen.clear()
        mode_observables(make_mode(n, 1, 0.0, 0.0), grid)
        [points] = seen
        j = np.rint(points * grid).astype(int)
        d = math.gcd(*n, grid)
        assert np.array_equal(np.sort(j @ np.array(n) % grid), np.arange(0, grid, d))


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_mode_scales_refuse_a_phase_past_the_floats(capsys, t):
    # omega_max = 2 pi sqrt(3) at n_max 1, so in a unit box omega t
    # overflows; field-sample converts the time before any field is built
    assert main(["field-sample", "--n-max=1", "--points=4", f"--time={t!r}"]) == 2
    phase = math.copysign(math.inf, t)
    assert f"its phase is {phase!r}, outside the range of normal floats" in capsys.readouterr().err


@pytest.mark.parametrize("t", [0.0, 1e307, -1e307])
def test_mode_scales_accept_a_phase_within_the_floats(capsys, t):
    assert main(["field-sample", "--n-max=1", "--points=4", f"--time={t!r}"]) == 0
    capsys.readouterr()


def test_resolution_floor_enforced():
    assert resolution_floor((0, 0, 1)) == 4
    assert resolution_floor((2, -3, 1)) == 12
    mode = make_mode((2, -3, 1), 1, 0.0, 0.0)
    with pytest.raises(ResolutionError):
        mode_observables(mode, 11)
    mode_observables(mode, 12)


# --- realizations and totals --------------------------------------------------


def test_mode_keys_cover_both_polarizations():
    n, gamma = mode_keys(1)
    keys = list(zip(map(tuple, n.tolist()), gamma.tolist()))
    assert n.shape == (52, 3)
    assert len(keys) == 52
    assert len(set(keys)) == 52
    assert all(any(n) for n, _ in keys)
    assert all(g in (1, -1) for _, g in keys)
    # n ascending, with +1 listed before -1 for each n
    triples = [n for n, _ in keys]
    assert triples == sorted(triples)
    for i in range(0, len(keys), 2):
        assert keys[i][0] == keys[i + 1][0]
        assert (keys[i][1], keys[i + 1][1]) == (1, -1)


def test_sample_realization_deterministic():
    a = sample_realization(1, 42).modes
    b = sample_realization(1, 42).modes
    c = sample_realization(1, 43).modes
    for field in ("n", "gamma", "zeta", "phi"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert not np.array_equal(a.zeta, c.zeta)


def test_zeta_ensemble_rows_match_child_realizations():
    # realization i owns the i-th block of 2M draws of one Philox stream,
    # M/2 counters long, also past the sampler's first block of rows
    count_modes = len(mode_keys(1)[1])
    per_block = modes._DRAW_DOUBLES // (2 * count_modes)
    keys, zetas = sample_zeta_ensemble(1, per_block + 2, 9, range(count_modes))
    for i in (0, 3, per_block, per_block + 1):
        stream = np.random.Philox(9).advance(i * count_modes // 2)
        real = sample_realization(1, stream)
        assert np.array_equal(real.modes.n, keys[0])
        assert np.array_equal(real.modes.gamma, keys[1])
        assert np.array_equal(zetas[i], real.modes.zeta)


@pytest.mark.parametrize("n_max", [1, 2, 13])
def test_streamed_zeta_columns_match_the_whole_draw(n_max):
    # the whole ensemble drawn at once, as rng.uniform scales it, against the
    # streamed columns, bit for bit: three buffers of rows, the last partial
    # (n_max 13 has rows longer than the buffer, so a buffer is one row),
    # with columns unsorted and repeated
    m = len(mode_keys(n_max)[1])
    rows = max(1, modes._DRAW_DOUBLES // (2 * m))
    count = 2 * rows + rows // 2 + 1
    columns = [m - 1, 0, 5, 5, m // 2, 3, m - 1]
    whole = np.random.Generator(np.random.Philox(4)).uniform(0.0, 2.0 * np.pi, (count, 2 * m))
    _, zetas = sample_zeta_ensemble(n_max, count, 4, columns)
    assert zetas.shape == (count, len(columns))
    assert np.array_equal(zetas, whole[:, :m][:, columns])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_zeta_columns_match_the_whole_draw_at_block_edges(data):
    # one to three blocks of rows and one more, the last block full, partial
    # or a single row, and any columns with repeats, against rng.uniform over
    # the whole ensemble, bit for bit
    n_max = data.draw(st.sampled_from([1, 2]))
    m = len(mode_keys(n_max)[1])
    rows = modes._DRAW_DOUBLES // (2 * m)
    edges = [blocks * rows + extra for blocks in (1, 2, 3) for extra in (-1, 0, 1)]
    count = data.draw(st.one_of(st.sampled_from(edges), st.integers(1, 3 * rows + 1)))
    columns = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2 * m))
    seed = data.draw(st.integers(0, 2**64 - 1))
    whole = np.random.Generator(np.random.Philox(seed)).uniform(0.0, 2.0 * np.pi, (count, 2 * m))
    _, zetas = sample_zeta_ensemble(n_max, count, seed, columns)
    assert np.array_equal(zetas, whole[:, :m][:, columns])


def test_columns_outside_the_zeta_block_refused():
    # columns M .. 2M - 1 of a row are phis; a negative index would reach them
    for columns in ([52], [-1], [[0, 1]]):
        with pytest.raises(ValueError, match="mode indices"):
            sample_zeta_ensemble(1, 3, 9, columns)


def test_zeta_draw_budget_refused_before_mode_keys(monkeypatch):
    def never_called(*args, **kwargs):
        raise AssertionError("mode keys built before the draw budget")

    monkeypatch.setattr(modes, "mode_keys", never_called)
    # 1e6 realizations x 1409936 modes, although two kept columns and the
    # modes themselves fit
    with pytest.raises(SizeLimitError, match="1409936000000 zeta draws"):
        sample_zeta_ensemble(44, 1_000_000, 9, [0, 1])
    # 2^27 draws are 2581110.15 realizations of 52 modes
    refuse(modes.ensemble_cost(1, 2_581_110, 2))
    with pytest.raises(SizeLimitError, match="134217772 zeta draws"):
        refuse(modes.ensemble_cost(1, 2_581_111, 2))


def test_oversized_ensemble_and_grid_refused_before_allocation():
    with pytest.raises(SizeLimitError, match="GiB"):
        sample_zeta_ensemble(1, 3_000_000, 9, range(52))
    # 8388608 lattice phases x 232 bytes
    with pytest.raises(SizeLimitError, match="1.8 GiB"):
        mode_observables(make_mode((0, 0, 1), 1, 0.0, 0.0), 8_388_608)


def test_oversized_mode_sets_refused_before_mode_keys(monkeypatch):
    def never_called(*args, **kwargs):
        raise AssertionError("mode keys built before the size check")

    monkeypatch.setattr(modes, "mode_keys", never_called)
    # 3543120 modes x 760 bytes; 128962400 modes x 760 bytes, although one
    # row of their zetas, 8 bytes a mode, would fit
    with pytest.raises(SizeLimitError, match="2.5 GiB"):
        sample_realization(60, 1)
    with pytest.raises(SizeLimitError, match="91.3 GiB"):
        sample_zeta_ensemble(200, 1, 9, range(128_962_400))


def test_totals_cancel_exactly_for_closed_set():
    real = sample_realization(1, 7)
    totals = realization_totals(real)
    assert totals.H > 0
    assert np.all(totals.P == 0.0)
    assert np.all(totals.J == 0.0)


def grouped_loop_energy(real):
    """Total H added mode by mode: groups of canon = max(n, -n) ascending,
    within a group n == canon first, then gamma = +1 first."""
    per_mode = analytic_mode_observables(real.modes)
    n = [tuple(v) for v in real.modes.n.tolist()]
    gamma = real.modes.gamma.tolist()
    groups = {}
    for i, v in enumerate(n):
        groups.setdefault(max(v, tuple(-c for c in v)), []).append(i)
    H = 0.0
    for canon, rows in sorted(groups.items()):
        for i in sorted(rows, key=lambda i: (n[i] != canon, -gamma[i])):
            H += float(per_mode.H[i])
    return H


@pytest.mark.parametrize("n_max", [1, 2])
def test_permuted_closed_set_keeps_exact_totals(n_max):
    real = sample_realization(n_max, 7)
    order = np.random.default_rng(n_max).permutation(len(real.modes))
    totals = realization_totals(real)
    shuffled = realization_totals(ZpfRealization(real.modes[order]))
    assert np.all(shuffled.P == 0.0)
    assert np.all(shuffled.J == 0.0)
    assert shuffled.H.hex() == totals.H.hex() == grouped_loop_energy(real).hex()


def test_modes_rows_stay_two_dimensional():
    m = sample_realization(1, 3).modes
    assert len(m) == 52
    first = m[:1]
    assert len(first) == 1
    assert first.n.shape == (1, 3)
    picked = m[np.array([5, 0])]
    for field in ("n", "gamma", "zeta", "phi"):
        assert np.array_equal(getattr(picked, field), getattr(m, field)[[5, 0]])
    for index in (0, np.int64(0)):
        with pytest.raises(TypeError):
            m[index]
    with pytest.raises(ValueError, match="one mode"):
        mode_observables(m[:2], 8)
    want = [
        cmath.exp(1j * z) * cmath.exp(1j * g * p)
        for g, z, p in zip(m.gamma.tolist(), m.zeta.tolist(), m.phi.tolist())
    ]
    assert np.max(np.abs(m.amplitude - np.array(want))) < 1e-15


def test_gamma_pair_kills_spin_but_not_momentum():
    m_plus = make_mode((1, 0, 0), 1, 0.2, 0.3)
    m_minus = make_mode((1, 0, 0), -1, 1.2, 2.3)
    totals = realization_totals(ZpfRealization(stack(m_plus, m_minus)))
    assert np.all(totals.J == 0.0)
    assert np.linalg.norm(totals.P) > 0
    single = realization_totals(ZpfRealization(m_plus))
    ref = row(analytic_mode_observables(m_plus), 0)
    assert single.H == pytest.approx(ref.H, rel=1e-15)
    assert np.allclose(single.J, ref.J, rtol=1e-15)


@settings(max_examples=25)
@given(nonzero_triples, st.sampled_from([1, -1]))
def test_spin_is_half_hbar_along_k(n, gamma):
    mode = make_mode(n, gamma, 0.0, 0.0)
    obs = row(analytic_mode_observables(mode), 0)
    khat = np.array(n, dtype=float)
    khat /= np.linalg.norm(khat)
    assert np.max(np.abs(obs.J - gamma * 0.5 * khat)) < 1e-14
