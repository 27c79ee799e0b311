"""MAC-operator and transform-solver tests.

The load-bearing facts: the transform solvers invert exactly the same
discrete operators the explicit residual routines implement, divergence
of a gradient is the Neumann Laplacian, and cell sums of flux divergences
telescope to zero.
"""

import numpy as np
import pytest
import scipy.fft
from scipy.fft import dctn, dst, idctn, idst

from chemostokes import spectral
from chemostokes.errors import ConfigError
from chemostokes.grid import (Grid, divergence, face_avg, face_diff,
                              face_upwind, full_faces, grad_squared_cells,
                              interior, velocity_magnitude_squared_cells)
from chemostokes.spectral import (SpectralCache, face_laplacian,
                                  neumann_laplacian, solve_cell_helmholtz,
                                  solve_face_helmholtz, solve_neumann_poisson)


def random_grid_2d(seed=0, cells=(24, 18), extent=(2.0, 1.5)):
    rng = np.random.default_rng(seed)
    grid = Grid(cells, extent)
    return grid, rng


def test_grid_validation():
    with pytest.raises(ConfigError):
        Grid((8,), (1.0,))
    with pytest.raises(ConfigError):
        Grid((8, 8), (1.0,))
    with pytest.raises(ConfigError):
        Grid((1, 8), (1.0, 1.0))
    with pytest.raises(ConfigError):
        Grid((8, 8), (1.0, -1.0))
    g = Grid((8, 4), (2.0, 1.0))
    assert g.h == (0.25, 0.25)
    assert g.cell_volume == pytest.approx(0.0625)
    assert g.volume == pytest.approx(2.0)


def test_divergence_telescopes_to_zero_sum():
    grid, rng = random_grid_2d(1)
    faces = []
    for a in range(grid.dim):
        f = np.zeros(grid.face_shape(a))
        interior(f, a)[...] = rng.standard_normal(interior(f, a).shape)
        faces.append(f)
    total = float(np.sum(divergence(grid, faces))) * grid.cell_volume
    assert abs(total) <= 1e-13


def test_div_grad_is_neumann_laplacian():
    grid, rng = random_grid_2d(2)
    f = rng.standard_normal(grid.cells)
    lap = neumann_laplacian(grid, f)
    # reference: ghost-cell reflection (zero-flux) 5-point stencil
    ref = np.zeros_like(f)
    for a in range(grid.dim):
        padded = np.concatenate([
            np.take(f, [0], axis=a), f, np.take(f, [-1], axis=a)], axis=a)
        second = np.diff(padded, n=2, axis=a) / grid.h[a] ** 2
        ref += second
    assert np.max(np.abs(lap - ref)) <= 1e-12


def test_neumann_poisson_inverts_laplacian():
    grid, rng = random_grid_2d(3)
    cache = SpectralCache(grid)
    f = rng.standard_normal(grid.cells)
    f -= f.mean()
    phi = solve_neumann_poisson(cache, neumann_laplacian(grid, f))
    assert np.max(np.abs((phi - phi.mean()) - (f - f.mean()))) <= 1e-11


def test_cell_helmholtz_residual():
    grid, rng = random_grid_2d(4)
    cache = SpectralCache(grid)
    rhs = rng.standard_normal(grid.cells)
    a = 3.7e-3
    x = solve_cell_helmholtz(cache, rhs, a)
    res = x - a * neumann_laplacian(grid, x) - rhs
    assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("axis", [0, 1])
def test_face_helmholtz_residual(axis):
    grid, rng = random_grid_2d(5, cells=(20, 14))
    cache = SpectralCache(grid)
    shape = list(grid.cells)
    shape[axis] -= 1
    rhs = rng.standard_normal(shape)
    a = 2.3e-3
    x = solve_face_helmholtz(cache, rhs, axis, a)
    full = np.zeros(grid.face_shape(axis))
    interior(full, axis)[...] = x
    res = x - a * face_laplacian(grid, full, axis) - rhs
    assert np.max(np.abs(res)) <= 1e-12


def test_face_helmholtz_3d_residual():
    grid = Grid((10, 8, 6), (1.0, 0.8, 0.6))
    cache = SpectralCache(grid)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal((10, 7, 6))
    x = solve_face_helmholtz(cache, rhs, 1, 1.1e-3)
    full = np.zeros(grid.face_shape(1))
    interior(full, 1)[...] = x
    res = x - 1.1e-3 * face_laplacian(grid, full, 1) - rhs
    assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("cells", [(20, 14), (10, 8, 6)])
def test_solves_match_out_of_place_and_leave_rhs_untouched(cells):
    """Each solve returns the bits of an out-of-place reference (a fresh
    array per transform and divide) and never writes its rhs, which the
    callers reuse for their residuals.  The face rhs is an interior view
    of a full face array, as in step_u."""
    grid = Grid(cells, [0.25 * c for c in cells])
    cache = SpectralCache(grid)
    rng = np.random.default_rng(len(cells))
    a = 2.9e-3
    rhs = rng.standard_normal(grid.cells)
    kept = rhs.copy()

    rhat = dctn(rhs, type=2, norm="ortho")
    phat = -rhat / cache.poisson_lam
    phat[(0,) * grid.dim] = 0.0
    expected = idctn(phat, type=2, norm="ortho")
    assert np.array_equal(solve_neumann_poisson(cache, rhs), expected)
    assert np.array_equal(rhs, kept)

    xhat = dctn(rhs, type=2, norm="ortho") / (1.0 + a * cache.cell_lam)
    expected = idctn(xhat, type=2, norm="ortho")
    assert np.array_equal(solve_cell_helmholtz(cache, rhs, a), expected)
    assert np.array_equal(rhs, kept)

    for axis in range(grid.dim):
        full = rng.standard_normal(grid.face_shape(axis))
        kept = full.copy()
        kinds = [1 if b == axis else 2 for b in range(grid.dim)]
        xhat = interior(full, axis)
        for b in range(grid.dim):
            xhat = dst(xhat, type=kinds[b], axis=b, norm="ortho")
        xhat = xhat / (1.0 + a * cache.face_lam[axis])
        for b in range(grid.dim):
            xhat = idst(xhat, type=kinds[b], axis=b, norm="ortho")
        got = solve_face_helmholtz(cache, interior(full, axis), axis, a)
        assert np.array_equal(got, xhat)
        assert np.array_equal(full, kept)


TRANSFORM_SHAPES = [(6, 5), (1, 2), (2, 1), (7, 4, 3), (1, 2, 1)]


def transform_inputs(shape, seed):
    """A contiguous array of `shape` and, per axis, an interior view of a
    larger array (one more sample on each side), as step_u passes."""
    rng = np.random.default_rng(seed)
    yield rng.standard_normal(shape)
    for a in range(len(shape)):
        big = list(shape)
        big[a] += 2
        yield interior(rng.standard_normal(big), a)


def check_transform(ours, reference, x):
    """`ours` matches `reference` bit for bit, leaves its input alone when
    out of place, and writes into the input's buffer with overwrite_x."""
    kept = x.copy()
    expected = reference(kept.copy())
    assert np.array_equal(ours(x), expected)
    assert np.array_equal(x, kept)
    got = ours(x, overwrite_x=True)
    assert got is x
    assert np.array_equal(x, expected)


@pytest.mark.parametrize("shape", TRANSFORM_SHAPES)
def test_transforms_match_scipy_fft(shape):
    """Each kernel wrapper returns the bits of its public scipy.fft
    counterpart, in 2D and 3D, along every axis, for odd, even and
    length-1 and -2 axes, on contiguous arrays and strided views."""
    for x in transform_inputs(shape, len(shape)):
        check_transform(spectral.dctn,
                        lambda y: dctn(y, type=2, norm="ortho"), x)
        check_transform(spectral.idctn,
                        lambda y: idctn(y, type=2, norm="ortho"), x)
        for axis in range(len(shape)):
            for kind in (1, 2):
                check_transform(
                    lambda y, **kw: spectral.dst(y, kind, axis, **kw),
                    lambda y: dst(y, type=kind, axis=axis, norm="ortho"), x)
                check_transform(
                    lambda y, **kw: spectral.idst(y, kind, axis, **kw),
                    lambda y: idst(y, type=kind, axis=axis, norm="ortho"),
                    x)


def test_kernel_is_loaded_once():
    assert scipy.fft._pocketfft.pfft is spectral._kernel


def test_missing_kernel_names_scipy_and_path(tmp_path):
    with pytest.raises(ImportError) as err:
        spectral._load_kernel(str(tmp_path))
    assert scipy.__version__ in str(err.value)
    assert str(tmp_path / "fft" / "_pocketfft" / "pypocketfft") \
        in str(err.value)


def test_projection_removes_gradients_keeps_curls():
    grid, rng = random_grid_2d(7, cells=(16, 16), extent=(1.0, 1.0))
    cache = SpectralCache(grid)
    # gradient part
    psi_c = rng.standard_normal(grid.cells)
    grad = [full_faces(grid, face_diff(grid, psi_c, a), a)
            for a in range(grid.dim)]
    div0 = divergence(grid, grad)
    phi = solve_neumann_poisson(cache, div0)
    for a in range(grid.dim):
        interior(grad[a], a)[...] -= face_diff(grid, phi, a)
    assert max(np.max(np.abs(g)) for g in grad) <= 1e-11
    # a node-streamfunction curl is untouched (already divergence-free)
    nodes = rng.standard_normal((17, 17))
    nodes[0, :] = nodes[-1, :] = nodes[:, 0] = nodes[:, -1] = 0.0
    curl = [np.zeros(grid.face_shape(0)), np.zeros(grid.face_shape(1))]
    curl[0][...] = np.diff(nodes, axis=1) / grid.h[1]
    curl[1][...] = -np.diff(nodes, axis=0) / grid.h[0]
    before = [c.copy() for c in curl]
    div_c = divergence(grid, curl)
    assert np.max(np.abs(div_c)) <= 1e-11
    phi = solve_neumann_poisson(cache, div_c)
    for a in range(grid.dim):
        interior(curl[a], a)[...] -= face_diff(grid, phi, a)
    for b, c in zip(before, curl):
        assert np.max(np.abs(b - c)) <= 1e-11


def test_grad_squared_cells_equals_face_energy():
    grid, rng = random_grid_2d(8)
    f = rng.standard_normal(grid.cells)
    cell_sum = float(np.sum(grad_squared_cells(grid, f))) * grid.cell_volume
    face_sum = 0.0
    for a in range(grid.dim):
        g = face_diff(grid, f, a)
        face_sum += float(np.sum(g * g)) * grid.cell_volume
    assert cell_sum == pytest.approx(face_sum, rel=1e-13)


def test_face_upwind_selection():
    grid = Grid((4, 2), (4.0, 2.0))
    f = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    speed = np.array([[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    up = face_upwind(f, speed, 0)
    assert np.array_equal(up[:, 0], [1.0, 2.0, 4.0])
    assert np.array_equal(up[:, 1], [2.0, 3.0, 3.0])


def test_face_avg_and_diff_shapes():
    grid = Grid((5, 3), (1.0, 1.0))
    f = np.arange(15.0).reshape(5, 3)
    assert face_avg(f, 0).shape == (4, 3)
    assert face_diff(grid, f, 0).shape == (4, 3)
    assert face_diff(grid, f, 1).shape == (5, 2)
    # linear field has exact face gradients
    xs = grid.centers()
    lin = 2.0 * xs[0] + 3.0 * xs[1]
    g0 = face_diff(grid, lin, 0)
    assert np.allclose(g0, 2.0, rtol=1e-13)


def test_velocity_magnitude_constant_field():
    grid = Grid((6, 6), (1.0, 1.0))
    u = grid.zero_velocity()
    for a in range(2):
        interior(u[a], a)[...] = 1.0
    mag = velocity_magnitude_squared_cells(grid, u)
    # interior cells see both neighbors at 1: |u|^2 = 1 + 1 = 2; boundary
    # cells average against the zero wall face
    assert mag[2, 2] == pytest.approx(2.0)
    assert mag[0, 2] == pytest.approx(1.5)
