import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fluidspan.errors import ParameterError, SolvabilityError
from fluidspan.fields import (
    Grid,
    ScalarField,
    VectorField,
    biot_savart,
    curl,
    dealias,
    derivative_hat,
    derivative_values,
    divergence,
    grad_u_inf_norm,
    half_plane_dot,
    inverse_laplacian_hat,
    invert_laplacian,
    kato_ratio,
    lp_norm,
    lp_terms,
    operator_norm_2x2,
    poisson_bracket,
    product_hat,
    sobolev_norm,
    spectral_derivative,
    tail_enstrophy_fraction,
    to_physical,
)


@pytest.fixture(scope="module")
def grid():
    return Grid(64)


def random_smooth_field(grid, seed, kmax=5, amp=1.0, mean_zero=True):
    """Band-limited random field from a handful of low Fourier modes."""
    rng = np.random.default_rng(seed)
    vals = np.zeros((grid.nx, grid.ny))
    for _ in range(8):
        kx = rng.integers(-kmax, kmax + 1)
        ky = rng.integers(-kmax, kmax + 1)
        if mean_zero and kx == 0 and ky == 0:
            continue
        phase = rng.uniform(0, 2 * np.pi)
        vals += rng.normal(scale=amp) * np.cos(kx * grid.X + ky * grid.Y + phase)
    return ScalarField(grid, vals)


# Deterministic property runs: the same examples on every run.
PROPERTY = settings(derandomize=True, deadline=None, max_examples=40, database=None)


@st.composite
def nyquist_fields(draw, grid):
    """Band-limited field drawn from a few Fourier modes, always including
    one on a Nyquist line (kx = nx/2 or ky = ny/2)."""
    nyq_x, nyq_y = grid.nx // 2, grid.ny // 2
    mode = st.tuples(st.integers(-nyq_x, nyq_x), st.integers(0, nyq_y),
                     st.floats(-2.0, 2.0), st.floats(0.0, 2 * np.pi))
    modes = draw(st.lists(mode, min_size=1, max_size=6))
    kx, ky, x_line = draw(st.tuples(st.integers(-nyq_x, nyq_x), st.integers(0, nyq_y),
                                    st.booleans()))
    modes.append((nyq_x if x_line else kx, ky if x_line else nyq_y,
                  draw(st.floats(0.5, 2.0)), draw(st.floats(0.0, 2 * np.pi))))
    vals = np.zeros((grid.nx, grid.ny))
    for kx, ky, amp, phase in modes:
        vals += amp * np.cos(kx * grid.X + ky * grid.Y + phase)
    return ScalarField(grid, vals)


def curl_biot_savart_reference(f):
    """curl(K f) by rfft2: f without its mean, where a Nyquist-line mode
    keeps only the share (kx_d^2 + ky_d^2) / (kx^2 + ky^2) that the odd-order
    derivatives (Nyquist wavenumber zeroed) can see."""
    nx, ny = f.values.shape
    kx = np.fft.fftfreq(nx, d=1.0 / nx)[:, None]
    ky = np.fft.rfftfreq(ny, d=1.0 / ny)[None, :]
    kx_d, ky_d = kx.copy(), ky.copy()
    kx_d[nx // 2] = 0.0
    ky_d[:, -1] = 0.0
    k2 = kx**2 + ky**2
    share = np.divide(kx_d**2 + ky_d**2, k2, out=np.zeros_like(k2), where=k2 > 0)
    return np.fft.irfft2(share * np.fft.rfft2(f.values), s=(nx, ny))


def test_roundtrip_physical_spectral(grid):
    f = random_smooth_field(grid, seed=0)
    back = ScalarField.from_hat(grid, f.hat)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * f.max_abs()


def test_derivative_of_sine(grid):
    f = ScalarField.from_function(grid, lambda x, y: np.sin(x))
    fx = spectral_derivative(f, (1, 0))
    assert np.max(np.abs(fx.values - np.cos(grid.X))) < 1e-12


def test_derivative_of_constant(grid):
    f = ScalarField(grid, np.full((grid.nx, grid.ny), 3.7))
    for alpha in [(1, 0), (0, 1), (2, 1)]:
        assert spectral_derivative(f, alpha).max_abs() < 1e-12


def test_mixed_derivative_closed_form(grid):
    f = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))
    fxy = spectral_derivative(f, (1, 1))
    assert np.max(np.abs(fxy.values - np.cos(grid.X) * np.cos(grid.Y))) < 1e-12


def test_mixed_derivative_against_finite_differences():
    # independent oracle: centered differences on a 256^2 grid
    g = Grid(256)
    f = ScalarField.from_function(g, lambda x, y: np.sin(x) * np.sin(y))
    fxy = spectral_derivative(f, (1, 1))

    vals = f.values
    fd_x = (np.roll(vals, -1, axis=0) - np.roll(vals, 1, axis=0)) / (2 * g.dx)
    fd_xy = (np.roll(fd_x, -1, axis=1) - np.roll(fd_x, 1, axis=1)) / (2 * g.dy)
    assert np.max(np.abs(fxy.values - fd_xy)) < 5e-4  # FD truncation floor


@PROPERTY
@given(data=st.data())
def test_derivative_matches_complex_power_formula(grid, data):
    # Reference: the (i kx)^a (i ky)^b multiplier on full meshgrid planes,
    # with the Nyquist mode zeroed in odd orders.
    f = data.draw(nyquist_fields(grid))
    kx = np.fft.fftfreq(grid.nx, d=1.0 / grid.nx)
    ky = np.fft.rfftfreq(grid.ny, d=1.0 / grid.ny)
    kx_d, ky_d = kx.copy(), ky.copy()
    kx_d[grid.nx // 2] = 0.0
    ky_d[-1] = 0.0
    for order in range(1, 5):
        for a in range(order + 1):
            b = order - a
            KX, KY = np.meshgrid(kx_d if a % 2 else kx, ky_d if b % 2 else ky, indexing="ij")
            mult = (1j * KX) ** a * (1j * KY) ** b
            ref = np.fft.irfft2(mult * np.fft.rfft2(f.values), s=(grid.nx, grid.ny))
            got = spectral_derivative(f, (a, b)).values
            assert np.max(np.abs(got - ref)) <= 1e-14 * max(np.max(np.abs(ref)), 1e-300)


def test_derivative_rejects_bad_alpha(grid):
    f = random_smooth_field(grid, seed=1)
    with pytest.raises(ParameterError):
        spectral_derivative(f, (3, 2))


def test_invert_laplacian_eigenfunctions(grid):
    f = ScalarField.from_function(grid, lambda x, y: np.sin(x))
    g = invert_laplacian(f)
    assert np.max(np.abs(g.values + np.sin(grid.X))) < 1e-12

    f2 = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))
    g2 = invert_laplacian(f2)
    assert np.max(np.abs(g2.values + 0.5 * np.sin(grid.X) * np.sin(grid.Y))) < 1e-12


@pytest.mark.parametrize("shape", [(32, 32), (128, 128), (24, 40)])
def test_inverse_laplacian_multiply_matches_division(shape):
    # The precomputed -1/K^2 plane gives the same bits as dividing by K^2
    # (numpy's complex / real multiplies by the reciprocal).
    g = Grid(*shape)
    rng = np.random.default_rng(3)
    hat = rng.normal(size=g.K2.shape) + 1j * rng.normal(size=g.K2.shape)
    k2 = g.K2.copy()
    k2[0, 0] = 1.0
    division = -hat / k2
    division[0, 0] = 0.0
    assert np.array_equal(inverse_laplacian_hat(g, hat), division)


def test_invert_laplacian_rejects_nonzero_mean(grid):
    f = ScalarField(grid, np.ones((grid.nx, grid.ny)))
    with pytest.raises(SolvabilityError):
        invert_laplacian(f)


def test_mean_check_is_held_against_the_rms(grid):
    # cos x cos y has rms 1/2 and max 1: a mean between 1e-10 rms and
    # 1e-10 max is rejected, one below 1e-10 rms passes.
    g = np.cos(grid.X) * np.cos(grid.Y)
    invert_laplacian(ScalarField(grid, g + 0.4e-10))
    biot_savart(ScalarField(grid, g + 0.4e-10))
    for solve in (invert_laplacian, biot_savart):
        with pytest.raises(SolvabilityError):
            solve(ScalarField(grid, g + 0.75e-10))


@pytest.mark.parametrize("shape", [(32, 32), (24, 40)])
def test_half_plane_dot_is_parseval(shape):
    # Random fields carry Nyquist content, so the ky = 0 and Nyquist columns
    # must count once and the interior twice.
    g = Grid(*shape)
    f, h = np.random.default_rng(5).normal(size=(2, g.nx, g.ny))
    scale = g.nx * g.ny * np.sqrt(np.sum(f * f) * np.sum(h * h))
    for a, b in ((f, f), (f, h)):
        got = half_plane_dot(np.fft.rfft2(a), np.fft.rfft2(b))
        assert abs(got - g.nx * g.ny * np.sum(a * b)) <= 1e-13 * scale


def test_biot_savart_zero(grid):
    u = biot_savart(ScalarField.zeros(grid))
    assert u.max_abs() == 0.0


def test_biot_savart_single_mode(grid):
    omega = ScalarField.from_function(grid, lambda x, y: np.cos(x))
    u = biot_savart(omega)
    assert np.max(np.abs(u.u.values)) < 1e-12
    assert np.max(np.abs(u.v.values - np.sin(grid.X))) < 1e-12
    # curl(u) must reproduce omega
    w = curl(u)
    assert np.max(np.abs(w.values - omega.values)) < 1e-12


def test_biot_savart_product_mode(grid):
    omega = ScalarField.from_function(grid, lambda x, y: np.sin(x) * np.sin(y))
    u = biot_savart(omega)
    ex_u = 0.5 * np.sin(grid.X) * np.cos(grid.Y)
    ex_v = -0.5 * np.cos(grid.X) * np.sin(grid.Y)
    assert np.max(np.abs(u.u.values - ex_u)) < 1e-12
    assert np.max(np.abs(u.v.values - ex_v)) < 1e-12


@PROPERTY
@given(data=st.data())
def test_biot_savart_divergence_free(grid, data):
    omegas = [random_smooth_field(grid, seed=seed) for seed in range(4)]
    omegas.append(data.draw(nyquist_fields(grid)))
    for omega in omegas:
        omega = omega - omega.mean
        u = biot_savart(omega)
        div_inf = divergence(u).max_abs()
        assert div_inf <= 1e-10 * max(grad_u_inf_norm(u), 1e-30)
        # curl(K omega) = omega off the Nyquist lines
        target = curl_biot_savart_reference(omega)
        assert np.max(np.abs(curl(u).values - target)) <= 1e-12 * max(omega.max_abs(), 1.0)


def test_poisson_bracket_examples(grid):
    f = ScalarField.from_function(grid, lambda x, y: np.sin(x))
    g = ScalarField.from_function(grid, lambda x, y: np.sin(y))
    br = poisson_bracket(f, g)
    exact = np.cos(grid.X) * np.cos(grid.Y)
    assert np.max(np.abs(br.values - exact)) < 1e-12
    # quadrature cross-check of the L2 size
    assert lp_norm(br.values, 2, grid.cell_area) == pytest.approx(
        np.sqrt(np.sum(exact**2) * grid.cell_area), rel=1e-13
    )

    h = ScalarField.from_function(grid, lambda x, y: np.cos(x))
    assert poisson_bracket(f, h).max_abs() < 1e-12


@PROPERTY
@given(data=st.data())
def test_poisson_bracket_antisymmetry(grid, data):
    pairs = [(random_smooth_field(grid, seed=5), random_smooth_field(grid, seed=6)),
             (data.draw(nyquist_fields(grid)), data.draw(nyquist_fields(grid)))]
    for f, g in pairs:
        scale = f.max_abs() * g.max_abs()
        assert poisson_bracket(f, f).max_abs() <= 1e-12 * max(scale, 1.0)
        anti = poisson_bracket(f, g) + poisson_bracket(g, f)
        assert anti.max_abs() <= 1e-12 * max(scale, 1.0)


def test_bracket_with_constant_is_zero(grid):
    f = random_smooth_field(grid, seed=7)
    c = ScalarField(grid, np.full((grid.nx, grid.ny), 2.5))
    assert poisson_bracket(f, c).max_abs() < 1e-12 * max(f.max_abs(), 1.0)


def test_lp_norm_closed_forms(grid):
    # ||sin x||_2 over the torus: integral of sin^2 is 2 pi^2
    f = np.sin(grid.X)
    assert lp_norm(f, 2, grid.cell_area) == pytest.approx(np.pi * np.sqrt(2), rel=1e-12)
    # constant field
    c = np.full_like(f, -1.5)
    assert lp_norm(c, 4, grid.cell_area) == pytest.approx(1.5 * (2 * np.pi) ** 0.5, rel=1e-12)
    assert lp_norm(c, np.inf, grid.cell_area) == 1.5


LP_EXPONENTS = (2.5, 3.0, 4.0, 6.0, np.inf)
# Entries of size 1e-6 .. 1e6 or exactly 0, so no square under- or overflows.
lp_entries = st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6))
lp_planes = st.lists(lp_entries, min_size=1, max_size=48)


def lp_reference(magnitudes, p, area):
    if np.isinf(p):
        return float(np.max(magnitudes))
    return float((np.sum(magnitudes**p) * area) ** (1.0 / p))


@PROPERTY
@given(values=lp_planes, other=lp_planes)
def test_lp_norm_matches_power_reference(values, other):
    # (v^2) ** (p / 2) against |v| ** p, for a plane and for the magnitude
    # of a vector field, to 1e-15 relative.
    a = np.array(values)
    b = np.resize(np.array(other), a.shape)
    area = 0.3
    for p in LP_EXPONENTS:
        ref = lp_reference(np.abs(a), p, area)
        assert abs(lp_norm(a, p, area) - ref) <= 1e-15 * ref
        ref = lp_reference(np.sqrt(a**2 + b**2), p, area)
        (got,) = lp_terms([(a, b)], p, area)
        assert abs(got - ref) <= 1e-15 * ref


def test_sobolev_norm_values(grid):
    f = ScalarField.from_function(grid, lambda x, y: np.sin(x))
    # independent quadrature oracle at p = 4
    q4 = (np.sum(np.abs(np.sin(grid.X)) ** 4) * grid.cell_area) ** 0.25
    assert sobolev_norm(f, 0, 4) == pytest.approx(q4, rel=1e-12)
    # k = 1 adds ||cos x||_4 (same value) and ||0||_4
    assert sobolev_norm(f, 1, 4) == pytest.approx(2 * q4, rel=1e-12)

    c = ScalarField(grid, np.full((grid.nx, grid.ny), 2.0))
    assert sobolev_norm(c, 0, 4) == pytest.approx(2.0 * (2 * np.pi) ** 0.5, rel=1e-12)


def test_sobolev_norm_rejects_small_p(grid):
    f = random_smooth_field(grid, seed=8)
    for bad in (2.0, 1.0, 0.5):
        with pytest.raises(ParameterError):
            sobolev_norm(f, 1, bad)


def test_sobolev_monotone_in_k(grid):
    f = random_smooth_field(grid, seed=9)
    norms = [sobolev_norm(f, k, 4) for k in range(4)]
    assert all(norms[k] <= norms[k + 1] for k in range(3))


def test_dealias_behaviour(grid):
    low = random_smooth_field(grid, seed=10, kmax=5)
    kept = dealias(low)
    assert np.max(np.abs(kept.values - low.values)) < 1e-13 * max(low.max_abs(), 1.0)

    nyq = ScalarField.from_function(grid, lambda x, y: np.cos((grid.nx // 2) * x))
    assert dealias(nyq).max_abs() < 1e-12

    once = dealias(random_smooth_field(grid, seed=11, kmax=grid.nx // 2 - 1))
    twice = dealias(once)
    assert np.array_equal(once.values, twice.values)


def test_operator_norm_matches_svd():
    rng = np.random.default_rng(3)
    mats = rng.normal(size=(50, 2, 2))
    ours = operator_norm_2x2(mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1])
    svd = np.linalg.svd(mats, compute_uv=False)[:, 0]
    assert np.max(np.abs(ours - svd)) < 1e-12


def test_kato_ratio_sane(grid):
    sup = 0.0
    for seed in range(6):
        omega = random_smooth_field(grid, seed=20 + seed)
        omega = omega - omega.mean
        u = biot_savart(omega)
        r = kato_ratio(u, omega, p=4)
        assert np.isfinite(r)
        sup = max(sup, r)
    assert sup <= 10.0


def test_tail_enstrophy_flags_high_modes(grid):
    low = random_smooth_field(grid, seed=30, kmax=4)
    assert tail_enstrophy_fraction(low) < 1e-12
    hi = ScalarField.from_function(grid, lambda x, y: np.cos((grid.nx // 2 - 1) * x))
    assert tail_enstrophy_fraction(hi) > 0.5


def test_tail_enstrophy_ring_follows_each_axis():
    # On a 32 x 64 grid |ky| = 20 lies inside the 2/3 band (cut 21.3) and
    # below 7/8 of the y Nyquist (28), so no enstrophy is in the tail; a
    # ring cut at 7/8 of the smaller Nyquist (14) would read 0.5.
    grid = Grid(32, 64)
    f = ScalarField.from_function(grid, lambda x, y: np.cos(x) + np.cos(20 * y))
    assert tail_enstrophy_fraction(f) < 1e-20
    hi = ScalarField.from_function(grid, lambda x, y: np.cos(x) + np.cos(30 * y))
    assert tail_enstrophy_fraction(hi) == pytest.approx(0.5)


def test_vector_field_shares_grid(grid):
    other = Grid(32)
    a = ScalarField.zeros(grid)
    b = ScalarField.zeros(other)
    from fluidspan.errors import GridMismatchError

    with pytest.raises(GridMismatchError):
        VectorField(a, b)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", [16, 64])
def test_kernels_keep_the_bits(n):
    # The kernels give bit for bit what the plain numpy expressions give, on
    # random coefficients and samples: the inverse transform, the masked
    # forward transform, and every derivative plane to order 3.
    rng = np.random.default_rng(n)
    grid = Grid(n)
    half = (n, n // 2 + 1)
    hat = rng.standard_normal(half) + 1j * rng.standard_normal(half)
    values = rng.standard_normal((n, n))
    assert _same_bits(to_physical(grid, hat), np.fft.irfft2(hat, s=(n, n)))
    assert _same_bits(product_hat(grid, values), np.fft.rfft2(values) * grid.dealias_keep)
    i_powers = (1.0, 1j, -1.0, -1j)
    for a, b in [(a, j - a) for j in range(1, 4) for a in range(j + 1)]:
        kx = grid.KXd if a % 2 else grid.KX
        ky = grid.KYd if b % 2 else grid.KY
        plain = i_powers[(a + b) % 4] * (kx**a * ky**b) * hat
        assert _same_bits(derivative_hat(grid, hat, a, b), plain), (a, b)
        out = derivative_values(grid, hat, a, b)
        assert _same_bits(out, to_physical(grid, derivative_hat(grid, hat, a, b))), (a, b)
        assert _same_bits(out, np.fft.irfft2(plain, s=(n, n))), (a, b)
