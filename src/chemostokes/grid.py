"""Staggered (MAC) grid and compatible discrete operators.

Scalars (n, c, P) live at cell centers; the velocity component u_a lives
on the faces normal to axis a, so u[a] has one extra entry along axis a.
Boundary faces carry the no-flux / no-slip value and stay identically
zero; all operators are written so that

    divergence(gradient(.))  =  cell-centered Neumann Laplacian,
    sum_cells divergence(F) * vol  telescopes to the boundary flux = 0,

which is what makes mass conservation exact and the projection compatible.
The no-slip wall along a component's transverse axes (ghost -u half a
cell outside) is defined once, in spectral.face_laplacian.
Arrays are indexed [x, y(, z)]; axis 0 is x.
"""

from __future__ import annotations

import sys

import numpy as np

from .errors import ConfigError


class Grid:
    """Uniform box grid.

    Attributes:
        dim: 2 or 3.
        cells: cells per axis.
        extent: box side lengths.
        h: cell spacing per axis.
        cell_volume: product of spacings.
        volume: |Omega|.
    """

    def __init__(self, cells, extent):
        cells = tuple(int(c) for c in cells)
        extent = tuple(float(e) for e in extent)
        if len(cells) not in (2, 3):
            raise ConfigError(f"grid.cells: need 2 or 3 axes, got {cells}")
        if any(c < 2 for c in cells):
            raise ConfigError(
                f"grid.cells: need >= 2 cells per axis, got {cells}")
        if any(c > sys.float_info.max for c in cells):
            raise ConfigError(
                f"grid.cells: a count must fit in a float, got {cells}")
        if len(extent) != len(cells):
            raise ConfigError(
                f"grid.extent: must have {len(cells)} entries, got {extent}")
        if any(e <= 0 for e in extent):
            raise ConfigError(f"grid.extent: must be positive, got {extent}")
        self.dim = len(cells)
        self.cells = cells
        self.extent = extent
        self.h = tuple(e / c for e, c in zip(extent, cells))
        self.cell_volume = float(np.prod(self.h))
        self.volume = float(np.prod(extent))

    def centers(self):
        """Cell-center coordinate arrays, broadcastable to cell shape."""
        return np.meshgrid(*[(np.arange(n) + 0.5) * h
                             for n, h in zip(self.cells, self.h)],
                           indexing="ij")

    def face_shape(self, axis: int) -> tuple:
        """Shape of the full face array (boundary faces included)."""
        s = list(self.cells)
        s[axis] += 1
        return tuple(s)

    def zero_velocity(self):
        """Face arrays for all components, all zero (includes boundaries)."""
        return [np.zeros(self.face_shape(a)) for a in range(self.dim)]


# ---------- slicing helpers ----------

def axslice(arr, axis, s):
    """arr[..., s, ...] with s applied along `axis`."""
    idx = [slice(None)] * arr.ndim
    idx[axis] = s
    return arr[tuple(idx)]


def interior(arr, axis):
    """Interior faces of a full face array along its normal axis."""
    return axslice(arr, axis, slice(1, -1))


# ---------- operators ----------

def divergence(grid: Grid, faces) -> np.ndarray:
    """Cell divergence of a face field (one full face array per axis)."""
    out = np.zeros(grid.cells)
    for a in range(grid.dim):
        fa = faces[a]
        out += (axslice(fa, a, slice(1, None)) -
                axslice(fa, a, slice(0, -1))) / grid.h[a]
    return out


def face_diff(grid: Grid, cellfield: np.ndarray, axis: int) -> np.ndarray:
    """Gradient of a cell field on the interior faces of `axis`."""
    return (axslice(cellfield, axis, slice(1, None)) -
            axslice(cellfield, axis, slice(0, -1))) / grid.h[axis]


def face_avg(cellfield: np.ndarray, axis: int) -> np.ndarray:
    """Arithmetic mean of a cell field on the interior faces of `axis`."""
    return 0.5 * (axslice(cellfield, axis, slice(1, None)) +
                  axslice(cellfield, axis, slice(0, -1)))


def face_upwind(cellfield: np.ndarray, speed: np.ndarray, axis: int) -> np.ndarray:
    """Upwind cell value on interior faces: left cell where speed > 0."""
    left = axslice(cellfield, axis, slice(0, -1))
    right = axslice(cellfield, axis, slice(1, None))
    return np.where(speed > 0.0, left, right)


def full_faces(grid: Grid, interior_values, axis: int) -> np.ndarray:
    """Embed interior-face values into a full face array (boundaries 0)."""
    out = np.zeros(grid.face_shape(axis))
    axslice(out, axis, slice(1, -1))[...] = interior_values
    return out


def grad_squared_cells(grid: Grid, cellfield: np.ndarray) -> np.ndarray:
    """|grad_h f|^2 averaged to cells from face gradients.

    Boundary faces contribute zero gradient (no-flux extension).  The cell
    sum of this field times cell_volume equals the face-based Dirichlet
    energy sum_f g_f^2 vol_f exactly, which is the form the discrete L^2
    identity for c is stated in.
    """
    return velocity_magnitude_squared_cells(
        grid, [full_faces(grid, face_diff(grid, cellfield, a), a)
               for a in range(grid.dim)])


def velocity_magnitude_squared_cells(grid: Grid, faces) -> np.ndarray:
    """|u|^2 averaged to cells from face components."""
    out = np.zeros(grid.cells)
    for a in range(grid.dim):
        out += face_avg(faces[a] ** 2, a)
    return out
