"""Global assembly and Dirichlet boundary conditions for the FE solver.

The stiffness assembly routes its COO triplet stream through
:class:`~repro.linalg.structure.StructureCache`: the triplet *pattern* of a
structured mesh depends only on its ``(nx, ny)`` topology, not on the
physical dimensions or the permittivity, so repeated solves -- a PXT
boundary-condition sweep re-meshing only the gap height, an optimization
loop iterating a geometry -- pay the sort-and-dedup COO->CSR reduction once
and every later assembly is a single ``bincount``.  Patterns are shared
process-wide per topology via :func:`structure_cache_for`; the cache
verifies the triplet arrays exactly, so a topology collision can only cost
a rebuild, never produce a wrong matrix.

:func:`gap_affine_stiffness` splits the stiffness of a mesh into its x-
and y-derivative pieces, ``K = height * Kxx + Kyy / height``, on that one
pattern, and :func:`free_block` reduces a matrix to its unconstrained
nodes while keeping the map back to its stored entries: together they let
a gap sweep assemble once and pay one data combination per gap.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..errors import FEMError
from ..linalg import StructureCache
from .elements import element_stiffness, rectangle_stiffness_pieces
from .mesh import RectangularMesh

__all__ = ["assemble_stiffness", "gap_affine_stiffness", "free_block",
           "apply_dirichlet", "structure_cache_for"]

#: Process-wide pattern caches keyed by mesh topology.  Bounded: topologies
#: beyond the cap evict the whole table (optimization sweeps cycle through a
#: handful of mesh densities, not hundreds).
_PATTERN_CACHES: dict[tuple[int, int], StructureCache] = {}
_PATTERN_CACHE_LIMIT = 32


def structure_cache_for(mesh: RectangularMesh) -> StructureCache:
    """The shared COO->CSR pattern cache for ``mesh``'s topology.

    Meshes with the same ``(nx, ny)`` divisions produce identical triplet
    patterns regardless of their physical size, so one cache serves every
    geometry variant of a sweep.
    """
    key = (mesh.nx, mesh.ny)
    cache = _PATTERN_CACHES.get(key)
    if cache is None:
        if len(_PATTERN_CACHES) >= _PATTERN_CACHE_LIMIT:
            _PATTERN_CACHES.clear()
        cache = StructureCache()
        _PATTERN_CACHES[key] = cache
    return cache


def assemble_stiffness(mesh: RectangularMesh,
                       permittivity: float | np.ndarray = 1.0,
                       structure_cache: StructureCache | None = None
                       ) -> sp.csr_matrix:
    """Assemble the global stiffness (Laplace) matrix of a structured mesh.

    ``permittivity`` is either a scalar or a per-element array, enabling
    layered dielectrics in the gap.  ``structure_cache`` overrides the
    process-wide per-topology pattern cache (pass a private instance to
    isolate a long-lived solver from unrelated assemblies).

    All elements of a structured rectangular mesh are congruent and the
    element stiffness is linear in the permittivity, so the ``(4, 4)``
    element matrix is integrated once and scaled per element; the returned
    CSR matrix shares its index structure with the pattern cache and should
    be treated as read-only (downstream consumers copy before mutating).
    """
    coords = mesh.node_coordinates()
    connectivity = np.asarray(mesh.element_connectivity(), dtype=np.intp)
    if np.isscalar(permittivity):
        eps = np.full(mesh.num_elements, float(permittivity))
    else:
        eps = np.asarray(permittivity, dtype=float)
        if eps.shape != (mesh.num_elements,):
            raise FEMError(
                f"per-element permittivity needs {mesh.num_elements} entries, got {eps.shape}")
    ke_unit = element_stiffness(coords[connectivity[0]], 1.0)
    return _assemble(mesh, eps[:, None, None] * ke_unit[None, :, :],
                     structure_cache)


def gap_affine_stiffness(mesh: RectangularMesh, permittivity: float
                         ) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The stiffness of ``mesh`` as ``K = height * Kxx + Kyy / height``.

    ``Kxx`` and ``Kyy`` are the x- and y-derivative parts of
    :func:`assemble_stiffness` (scalar ``permittivity``), taken from the
    exact split of :func:`~repro.fem.elements.rectangle_stiffness_pieces`.
    They depend on the divisions, the width and the permittivity but not
    on the height, so one pair serves every gap of a sweep; both are stored
    on the topology's CSR pattern (equal ``indices`` and ``indptr``).
    """
    k_xi, k_eta = rectangle_stiffness_pieces()
    eps = float(permittivity)
    # Element dy / dx = height / (ny dx) and dx / dy = ny dx / height.
    span = mesh.ny * mesh.dx
    shape = (mesh.num_elements, 4, 4)
    return (_assemble(mesh, np.broadcast_to(eps / span * k_xi, shape)),
            _assemble(mesh, np.broadcast_to(eps * span * k_eta, shape)))


def _assemble(mesh: RectangularMesh, values: np.ndarray,
              structure_cache: StructureCache | None = None
              ) -> sp.csr_matrix:
    """Sum a ``(num_elements, 4, 4)`` stack of element matrices into the
    global CSR matrix on the topology's shared pattern."""
    connectivity = np.asarray(mesh.element_connectivity(), dtype=np.intp)
    # Triplet order matches the historical (element, a, b) nested loop.
    rows = np.repeat(connectivity, 4, axis=1).ravel()
    cols = np.tile(connectivity, (1, 4)).ravel()
    if structure_cache is None:
        structure_cache = structure_cache_for(mesh)
    return structure_cache.assemble(rows, cols, values.ravel(), mesh.num_nodes)


def free_block(matrix: sp.csr_matrix, free: np.ndarray
               ) -> tuple[sp.csr_matrix, np.ndarray]:
    """``matrix[free][:, free]`` for sorted ``free`` nodes, and the
    positions of its entries in ``matrix.data``.

    Another matrix stored on the same pattern (the same ``indptr`` and
    ``indices``) has its block on the same block pattern, with the data
    ``other.data[positions]``.
    """
    n = matrix.shape[0]
    index = np.full(n, -1)
    index[free] = np.arange(free.size)
    rows = index[np.repeat(np.arange(n), np.diff(matrix.indptr))]
    cols = index[matrix.indices]
    positions = np.flatnonzero((rows >= 0) & (cols >= 0))
    indptr = np.concatenate(([0], np.cumsum(
        np.bincount(rows[positions], minlength=free.size))))
    block = sp.csr_matrix((matrix.data[positions], cols[positions], indptr),
                          shape=(free.size, free.size))
    return block, positions


def apply_dirichlet(matrix: sp.spmatrix, rhs: np.ndarray,
                    node_values: dict[int, float]) -> tuple[sp.csr_matrix, np.ndarray]:
    """Impose ``phi[node] = value`` constraints by row/column elimination.

    Returns the modified CSR matrix and right-hand side (copies; the inputs
    are untouched).  The known values move to the right-hand side, then one
    boolean mask over the stored entries (row of each entry from
    ``indptr``, column from ``indices``) zeroes every entry in a
    constrained row or column, and a unit diagonal on the constrained
    nodes is added: the sparse sum drops the zeroed entries and inserts a
    diagonal the input did not store.  The elimination keeps the matrix
    symmetric.
    """
    if not node_values:
        raise FEMError("at least one Dirichlet constraint is required")
    csr = sp.csr_matrix(matrix, copy=True)
    csr.sum_duplicates()
    n = csr.shape[0]
    constrained = np.array(sorted(node_values), dtype=int)
    if constrained.min() < 0 or constrained.max() >= n:
        raise FEMError("Dirichlet node index out of range")
    values = np.array([node_values[int(node)] for node in constrained], dtype=float)
    rhs = np.array(rhs, dtype=float, copy=True)
    rhs -= csr[:, constrained] @ values
    rhs[constrained] = values
    fixed = np.zeros(n, dtype=bool)
    fixed[constrained] = True
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    csr.data[fixed[rows] | fixed[csr.indices]] = 0.0
    unit = sp.csr_matrix((np.ones(constrained.size), constrained,
                          np.concatenate(([0], np.cumsum(fixed)))), shape=csr.shape)
    return csr + unit, rhs
