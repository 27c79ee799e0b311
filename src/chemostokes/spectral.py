"""Exact direct solvers for the constant-coefficient implicit pieces.

All three linear systems in a time step are constant-coefficient Laplacians
on a uniform box, so they are solved exactly (to round-off) by fast
trigonometric transforms instead of iterations:

  cell-centered Neumann Laplacian   -> DCT-II, eigenvalues
        lam_k = 4 sin^2(pi k / (2 N)) / h^2,  k = 0..N-1  (per axis)
  no-slip normal direction (values on interior faces, walls at the end
  faces)                            -> DST-I on N-1 points,
        lam_k = 4 sin^2(pi k / (2 N)) / h^2,  k = 1..N-1
  no-slip transverse direction (wall half a cell outside the first
  sample, ghost = -value)           -> DST-II,
        lam_k = 4 sin^2(pi k / (2 N)) / h^2,  k = 1..N

With norm='ortho' each transform is its own inverse's adjoint, so a
forward transform, a diagonal divide, and an inverse transform solve
(I - a Lap) x = b or the Poisson problem exactly.  Residuals of these
solves sit at machine precision; callers still verify them post hoc.

The transforms are scipy's compiled pocketfft kernel,
``scipy.fft._pocketfft.pypocketfft``, the C++ routine in which
``scipy.fft.dctn`` and ``scipy.fft.dst`` end.  It is loaded from its file
next to ``scipy.__file__``, under scipy's own dotted name, without running
``scipy/fft/__init__.py``: that package also imports ``scipy.special``,
``array_api_compat``, ``numpy.f2py`` and ``numpy.testing``, which the
solver never uses.  On a 2-vCPU x86-64 KVM guest (Python 3.11, numpy
2.4, scipy 1.17.1) a cold ``import chemostokes`` took 0.55 s and 54 MiB
peak RSS through ``scipy.fft``, and takes 0.21 s and 33 MiB this way.

The kernel's positional call signature ``(x, type, axes, inorm, out,
nthreads, ortho)`` was checked against scipy 1.17.1.  The wrappers below
pass what ``scipy.fft`` passes for norm="ortho" and its default single
worker, so the bits are the same.  A later ``import scipy.fft`` finds the
kernel in ``sys.modules`` and reuses it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import numpy as np
import scipy

from .grid import Grid, axslice, divergence, face_diff, full_faces

KERNEL = "scipy.fft._pocketfft.pypocketfft"


def _load_kernel(folder: str):
    """Load the pocketfft extension below scipy's package `folder`."""
    path = os.path.join(folder, "fft", "_pocketfft", "pypocketfft"
                        + importlib.machinery.EXTENSION_SUFFIXES[0])
    if not os.path.isfile(path):
        raise ImportError(f"scipy {scipy.__version__} has no pocketfft "
                          f"kernel at {path}")
    spec = importlib.util.spec_from_file_location(KERNEL, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[KERNEL] = module
    return module


_kernel = (sys.modules.get(KERNEL)
           or _load_kernel(os.path.dirname(scipy.__file__)))


# Orthonormal transforms (inorm 1, ortho True) on one thread.  Each takes
# the input array first and returns the output array; overwrite_x writes
# the result into the input's buffer.

def dctn(x: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """DCT-II over every axis: scipy.fft.dctn(x, 2, norm="ortho")."""
    return _kernel.dct(x, 2, None, 1, x if overwrite_x else None, 1, True)


def idctn(x: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Inverse of dctn, the DCT-III: scipy.fft.idctn(x, 2, norm="ortho")."""
    return _kernel.dct(x, 3, None, 1, x if overwrite_x else None, 1, True)


def dst(x: np.ndarray, type: int, axis: int,
        overwrite_x: bool = False) -> np.ndarray:
    """DST-I or DST-II along `axis`: scipy.fft.dst(x, type, axis=axis,
    norm="ortho")."""
    return _kernel.dst(x, type, (axis,), 1, x if overwrite_x else None, 1,
                       True)


def idst(x: np.ndarray, type: int, axis: int,
         overwrite_x: bool = False) -> np.ndarray:
    """Inverse of dst: DST-I is its own inverse, DST-II's is the DST-III."""
    return _kernel.dst(x, 3 if type == 2 else type, (axis,), 1,
                       x if overwrite_x else None, 1, True)


class SpectralCache:
    """Precomputed transform eigenvalues for one grid.

    Holds the eigenvalue array Lam of -Lap_h for the cell-centered
    Neumann operator (zero at the constant mode), the same array with
    that mode set to 1 for the Poisson divide, and, per velocity
    component, the positive eigenvalues of the mixed DST-I/DST-II face
    operator.
    """

    def __init__(self, grid: Grid):
        dim = grid.dim

        def lam(b, k):
            """4 sin^2(pi k / (2 N)) / h^2 along axis b."""
            n, h = grid.cells[b], grid.h[b]
            return 4.0 * np.sin(np.pi * k / (2.0 * n)) ** 2 / (h * h)

        # cell-centered Neumann: modes k = 0..N-1 over N cells
        self.cell_lam = sum(np.meshgrid(
            *[lam(a, np.arange(grid.cells[a])) for a in range(dim)],
            indexing="ij", sparse=True))
        self.poisson_lam = self.cell_lam.copy()
        self.poisson_lam[(0,) * dim] = 1.0   # avoid 0/0; mode is zeroed

        # face operators: DST-I along the own axis (N-1 interior faces,
        # modes k = 1..N-1), DST-II along the others (N samples, modes
        # k = 1..N); same eigenvalue formula with denominator 2N
        self.face_lam = [
            sum(np.meshgrid(*[lam(b, np.arange(1, grid.cells[b] if b == a
                                               else grid.cells[b] + 1))
                              for b in range(dim)],
                            indexing="ij", sparse=True))
            for a in range(dim)]


def solve_neumann_poisson(cache: SpectralCache, rhs: np.ndarray) -> np.ndarray:
    """Solve Lap_h phi = rhs - mean(rhs) with Neumann walls, mean(phi) = 0.

    The constant mode is projected out (compatibility); the caller is
    expected to pass an rhs whose mean is already at round-off.
    """
    phat = dctn(rhs)
    phat /= cache.poisson_lam
    np.negative(phat, out=phat)          # -(r/lam) is -r/lam bit for bit
    phat[(0,) * rhs.ndim] = 0.0
    return idctn(phat, overwrite_x=True)


def solve_cell_helmholtz(cache: SpectralCache, rhs: np.ndarray,
                         a: float) -> np.ndarray:
    """Solve (I - a Lap_h) x = rhs on cells with Neumann walls."""
    xhat = dctn(rhs)
    xhat /= 1.0 + a * cache.cell_lam
    return idctn(xhat, overwrite_x=True)


def solve_face_helmholtz(cache: SpectralCache, rhs_interior: np.ndarray,
                         axis: int, a: float) -> np.ndarray:
    """Solve (I - a Lap_h) x = rhs on the interior faces of `axis`.

    No-slip walls: Dirichlet zero at the end faces along the component's
    own axis (DST-I) and via ghost reflection half a cell outside along
    transverse axes (DST-II).
    """
    dim = rhs_interior.ndim
    xhat = rhs_interior
    for b in range(dim):
        # the first transform reads the caller's array; later ones reuse
        # the temporaries
        xhat = dst(xhat, 1 if b == axis else 2, b, overwrite_x=b > 0)
    xhat /= 1.0 + a * cache.face_lam[axis]
    for b in range(dim):
        xhat = idst(xhat, 1 if b == axis else 2, b, overwrite_x=True)
    return xhat


# ---------- explicit operators for residual verification ----------

def neumann_laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """div(grad f) with zero-flux walls; matches the DCT-II operator."""
    return divergence(
        grid, [full_faces(grid, face_diff(grid, f, a), a)
               for a in range(grid.dim)])


def face_laplacian(grid: Grid, u_full: np.ndarray, axis: int) -> np.ndarray:
    """Laplacian of one velocity component on its interior faces.

    Along the own axis the boundary faces (zeros) in u_full provide the
    Dirichlet data; along transverse axes the wall ghost is -u (no-slip
    half a cell outside), giving the (u_1 - 3 u_0)/h^2 end rows that the
    DST-II diagonalizes.
    """
    ui = axslice(u_full, axis, slice(1, -1))
    out = np.zeros_like(ui)
    for b in range(grid.dim):
        padded = u_full if b == axis else np.concatenate(
            [-axslice(ui, b, slice(0, 1)), ui,
             -axslice(ui, b, slice(-1, None))], axis=b)
        out += (axslice(padded, b, slice(2, None))
                - 2.0 * ui
                + axslice(padded, b, slice(0, -2))) / (grid.h[b] * grid.h[b])
    return out
