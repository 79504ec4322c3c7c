"""Structured triangulations of the square domain with full connectivity.

The solver works on shape-regular triangle meshes of the centered unit
square ``[-0.5, 0.5]^2``.  `build_structured_mesh(n)` splits an n x n grid
of squares into two triangles each, always along the lower-left to
upper-right diagonal, so repeated runs produce bit-identical meshes and
therefore bit-identical convergence tables.

Edges are oriented globally from the lower vertex index to the higher
one.  Skeleton degrees of freedom live on edges in this global
parametrization; each element records, per face, the global edge id and
whether its local face direction agrees with the global one.

The element geometry is derived once, when the mesh is built, by one
batched helper (`_element_geometry`) and stored on the mesh: per element
the Jacobian of its affine reference map and its determinant, and per
local face the length and the outward unit normal.  Every consumer (the
mesh checks, the element classes, the boundary data, the error norms and
the projection check) reads these arrays; `ElementGeometry` derives the
same quantities for one element with the same helper.  Meshes are
immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bounds (xmin, ymin, xmax, ymax) of the computational domain.
DOMAIN_BOUNDS = (-0.5, -0.5, 0.5, 0.5)

#: Tree nodes of at most this many elements are leaves of the
#: nested-dissection ordering.
ND_LEAF_SIZE = 8


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with edge connectivity and size metadata.

    Attributes
    ----------
    vertices : (V, 2) float array
    triangles : (F, 3) int array, positively oriented vertex triples
    edges : (E, 2) int array, each row (lo, hi) with lo < hi
    edge_to_elements : (E, 2, 2) int array
        Per edge, up to two (element, local face) incidences; unused slots
        hold -1.
    boundary_flags : (E,) bool array
    h_global : float, max element diameter (the longest face)
    elem_edges : (F, 3) int array, global edge id of each local face
    elem_edge_orient : (F, 3) int array, +1 if the local face direction
        (vertex f -> vertex f+1) matches the global edge direction, else -1
    jacobians : (F, 2, 2) float array, columns v1 - v0 and v2 - v0
    dets : (F,) float array, det J = 2 * area
    face_lengths : (F, 3) float array, length of local face f
    normals : (F, 3, 2) float array, outward unit normal of local face f
    n : subdivisions per side for structured meshes, None otherwise
    """

    vertices: np.ndarray
    triangles: np.ndarray
    edges: np.ndarray
    edge_to_elements: np.ndarray
    boundary_flags: np.ndarray
    h_global: float
    elem_edges: np.ndarray
    elem_edge_orient: np.ndarray
    jacobians: np.ndarray
    dets: np.ndarray
    face_lengths: np.ndarray
    normals: np.ndarray
    n: int | None = None

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def validate(self) -> None:
        """Check mesh invariants; raises ValueError on any violation."""
        v, e, f = self.n_vertices, self.n_edges, self.n_elements
        if v - e + f != 1:
            raise ValueError(f"Euler relation violated: V-E+F = {v - e + f}")
        n_incident = np.sum(self.edge_to_elements[:, :, 0] >= 0, axis=1)
        if not np.all(np.where(self.boundary_flags, n_incident == 1, n_incident == 2)):
            raise ValueError("edge incidence counts inconsistent with boundary flags")
        if np.any(self.dets <= 0):
            raise ValueError("negatively oriented or degenerate triangle")
        xmin, ymin, xmax, ymax = DOMAIN_BOUNDS
        domain_area = (xmax - xmin) * (ymax - ymin)
        area = 0.5 * self.dets.sum()
        if abs(area - domain_area) > 1e-12 * domain_area:
            raise ValueError(f"element areas sum to {area!r}, expected {domain_area!r}")

        corners = self.vertices[self.triangles]  # (F, 3, 2)
        tangents = np.roll(corners, -1, axis=1) - corners
        if np.max(np.abs(np.linalg.norm(self.normals, axis=2) - 1.0)) > 1e-12:
            raise ValueError("non-unit face normal")
        if np.max(np.abs(np.sum(self.normals * tangents, axis=2)) / self.face_lengths) > 1e-12:
            raise ValueError("normal not orthogonal to face tangent")
        midpoints = corners + 0.5 * tangents
        outward = np.sum(self.normals * (midpoints - corners.mean(axis=1, keepdims=True)), axis=2)
        if np.any(outward <= 0):
            raise ValueError("face normal points toward the centroid")


def _element_geometry(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Geometry of triangles given by their corners (F, 3, 2): Jacobians
    (F, 2, 2) with columns v1 - v0 and v2 - v0, their determinants (F,),
    face lengths (F, 3) and outward unit normals (F, 3, 2), where local
    face f runs from corner f to corner f + 1.  A zero-length face gets a
    non-finite normal and a zero determinant, which callers reject."""
    jac = np.stack([corners[:, 1] - corners[:, 0], corners[:, 2] - corners[:, 0]], axis=2)
    tangents = np.roll(corners, -1, axis=1) - corners
    lengths = np.linalg.norm(tangents, axis=2)
    with np.errstate(divide="ignore", invalid="ignore"):
        normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=2) / lengths[..., None]
    return jac, np.linalg.det(jac), lengths, normals


def build_structured_mesh(n: int) -> Mesh:
    """Uniform triangulation of [-0.5, 0.5]^2 with n subdivisions per side.

    Each grid square is split along its lower-left to upper-right diagonal
    into two positively oriented triangles, so h_global = sqrt(2)/n.
    """
    if n < 1:
        raise ValueError(f"subdivisions per side must be >= 1, got {n}")

    coords = np.linspace(-0.5, 0.5, n + 1)
    xx, yy = np.meshgrid(coords, coords)  # row j = y index, col i = x index
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i: int, j: int) -> int:
        return j * (n + 1) + i

    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    k = 0
    for j in range(n):
        for i in range(n):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles[k] = (a, b, c)
            triangles[k + 1] = (a, c, d)
            k += 2

    return _finish_mesh(vertices, triangles, n=n)


def _finish_mesh(vertices: np.ndarray, triangles: np.ndarray, n: int | None) -> Mesh:
    """Derive edge connectivity and size metadata from vertices/triangles."""
    f = triangles.shape[0]
    face_from = triangles
    face_to = np.roll(triangles, -1, axis=1)
    lo = np.minimum(face_from, face_to)
    hi = np.maximum(face_from, face_to)

    pairs = np.column_stack([lo.ravel(), hi.ravel()])
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    n_edges = edges.shape[0]
    elem_edges = inverse.reshape(f, 3).astype(np.int64)
    elem_edge_orient = np.where(face_from == lo, 1, -1).astype(np.int64)

    # Incidences in element-major order: stable sort of the flattened
    # face -> edge map groups the 1-2 faces touching each edge.
    order = np.argsort(elem_edges.ravel(), kind="stable")
    counts = np.bincount(elem_edges.ravel(), minlength=n_edges)
    first = np.zeros(n_edges, dtype=np.int64)
    first[1:] = np.cumsum(counts)[:-1]
    elem_of = order // 3
    face_of = order % 3

    edge_to_elements = np.full((n_edges, 2, 2), -1, dtype=np.int64)
    edge_to_elements[:, 0, 0] = elem_of[first]
    edge_to_elements[:, 0, 1] = face_of[first]
    interior = counts == 2
    edge_to_elements[interior, 1, 0] = elem_of[first[interior] + 1]
    edge_to_elements[interior, 1, 1] = face_of[first[interior] + 1]

    boundary_flags = ~interior
    if np.any(counts > 2):
        raise ValueError("non-manifold mesh: an edge touches more than two elements")

    jacobians, dets, face_lengths, normals = _element_geometry(vertices[triangles])
    # For structured meshes the mesh size is known in closed form; using it
    # makes h_global(2n) exactly half of h_global(n) in floating point.
    h_global = np.sqrt(2.0) / n if n is not None else float(face_lengths.max())

    mesh = Mesh(
        vertices=vertices,
        triangles=triangles,
        edges=edges,
        edge_to_elements=edge_to_elements,
        boundary_flags=boundary_flags,
        h_global=h_global,
        elem_edges=elem_edges,
        elem_edge_orient=elem_edge_orient,
        jacobians=jacobians,
        dets=dets,
        face_lengths=face_lengths,
        normals=normals,
        n=n,
    )
    mesh.validate()
    return mesh


@dataclass(frozen=True)
class ElementGeometry:
    """Geometry of a single triangle, including its affine reference map.

    The affine map is x = v0 + J xhat with xhat in the reference triangle;
    det J = 2 * area > 0 for positively oriented elements.
    """

    vertices: np.ndarray  # (3, 2)
    area: float
    h: float
    jacobian: np.ndarray  # (2, 2), columns v1-v0 and v2-v0
    det: float
    inv_jt: np.ndarray  # inverse transpose of the Jacobian
    normals: np.ndarray  # (3, 2) outward unit normals per local face
    face_lengths: np.ndarray  # (3,)
    edge_ids: np.ndarray  # (3,) global edge ids, -1 if standalone
    edge_orient: np.ndarray  # (3,) +1/-1 vs global edge direction

    @classmethod
    def from_vertices(
        cls,
        verts: np.ndarray,
        edge_ids: np.ndarray | None = None,
        edge_orient: np.ndarray | None = None,
    ) -> "ElementGeometry":
        verts = np.asarray(verts, dtype=float).reshape(3, 2)
        jac, det, lengths, normals = (a[0] for a in _element_geometry(verts[None]))
        det = float(det)
        if det <= 1e-14:
            raise ValueError(f"degenerate or negatively oriented element (det J = {det!r})")
        return cls(
            vertices=verts,
            area=0.5 * det,
            h=float(lengths.max()),
            jacobian=jac,
            det=det,
            inv_jt=np.linalg.inv(jac).T,
            normals=normals,
            face_lengths=lengths,
            edge_ids=np.full(3, -1, dtype=np.int64) if edge_ids is None else np.asarray(edge_ids),
            edge_orient=np.ones(3, dtype=np.int64) if edge_orient is None else np.asarray(edge_orient),
        )

    def map_to_physical(self, ref_points: np.ndarray) -> np.ndarray:
        """Map reference-triangle points (npts, 2) to physical coordinates."""
        ref_points = np.asarray(ref_points, dtype=float).reshape(-1, 2)
        return self.vertices[0] + ref_points @ self.jacobian.T


def mesh_entities(mesh: Mesh, elem: int) -> ElementGeometry:
    """Geometry and connectivity of one element of the mesh."""
    if not (0 <= elem < mesh.n_elements):
        raise IndexError(f"element index {elem} out of range [0, {mesh.n_elements})")
    return ElementGeometry.from_vertices(
        mesh.vertices[mesh.triangles[elem]],
        edge_ids=mesh.elem_edges[elem],
        edge_orient=mesh.elem_edge_orient[elem],
    )


def nested_dissection_edges(mesh: Mesh) -> np.ndarray:
    """Edge permutation (E,) from recursive coordinate bisection of the elements.

    Each tree node of more than `ND_LEAF_SIZE` elements is cut across the
    longer extent of its element centroids, at the vertex coordinate nearest
    the median centroid (at the median rank if that leaves one side empty).
    Its separator is the set of edges whose two elements fall on opposite
    sides; edges come out in post-order: left subtree, right subtree,
    separator.  One step per tree level: each step appends one base-3
    digit per edge (0 left, 1 right, 2 separator, 0 once placed), and one
    stable sort over the digits, level 0 first, yields the order.
    """
    cent = mesh.vertices[mesh.triangles].mean(axis=1)
    grid = [np.unique(mesh.vertices[:, axis]) for axis in range(2)]
    e1 = mesh.edge_to_elements[:, 0, 0]
    e2 = np.where(mesh.boundary_flags, e1, mesh.edge_to_elements[:, 1, 0])
    ids = np.arange(mesh.n_elements)  # elements of nodes that may still split
    nd = np.zeros(mesh.n_elements, dtype=np.int64)  # their tree nodes
    open_edges = np.ones(mesh.n_edges, dtype=bool)  # not yet in a separator
    digits = []
    while True:
        count = np.bincount(nd)
        keep = count[nd] > ND_LEAF_SIZE
        ids, nd = ids[keep], nd[keep]
        if ids.size == 0:
            break
        # Splitting nodes in ascending id; `seg` is the node of each
        # position in the node-major sorted element lists.
        count = count[count > ND_LEAF_SIZE]
        start = np.cumsum(count) - count
        last = start + count - 1
        seg = np.repeat(np.arange(count.size), count)
        c = cent[ids]
        by_x, by_y = np.lexsort((c[:, 0], nd)), np.lexsort((c[:, 1], nd))
        axis = (c[by_y[last], 1] - c[by_y[start], 1] > c[by_x[last], 0] - c[by_x[start], 0])
        axis = axis.astype(np.int64)
        order = np.where(axis[seg] == 1, by_y, by_x)
        coord = c[order, axis[seg]]
        median = coord[start + (count - 1) // 2]
        cut = np.empty(count.size)
        for a in range(2):
            sel = axis == a
            k = np.clip(np.searchsorted(grid[a], median[sel]), 1, grid[a].size - 1)
            below, above = grid[a][k - 1], grid[a][k]
            cut[sel] = np.where(median[sel] - below <= above - median[sel], below, above)
        right = coord >= cut[seg]
        n_right = np.add.reduceat(right.astype(np.int64), start)
        uneven = ((n_right == 0) | (n_right == count))[seg]
        rank = np.arange(ids.size) - start[seg]
        right[uneven] = rank[uneven] >= (count // 2)[seg][uneven]
        ids, nd = ids[order], 2 * seg + right
        side = np.full(mesh.n_elements, -1, dtype=np.int64)  # -1: in a leaf
        side[ids] = right
        inside = open_edges & (side[e1] >= 0)
        separator = inside & (side[e1] != side[e2])
        digits.append(np.where(separator, 2, np.where(inside, side[e1], 0)).astype(np.int8))
        open_edges &= ~separator
    if not digits:
        return np.arange(mesh.n_edges)
    return np.lexsort(digits[::-1])


def format_mesh(mesh: Mesh) -> str:
    """Plain-text mesh dump with vertex, triangle, and edge sections."""
    out = [f"vertices {mesh.n_vertices}"]
    for k, (x, y) in enumerate(mesh.vertices):
        out.append(f"{k} {x:.17g} {y:.17g}")
    out.append(f"triangles {mesh.n_elements}")
    for k, (a, b, c) in enumerate(mesh.triangles):
        out.append(f"{k} {a} {b} {c}")
    out.append(f"edges {mesh.n_edges}")
    for k, ((a, b), bd) in enumerate(zip(mesh.edges, mesh.boundary_flags)):
        out.append(f"{k} {a} {b} {int(bd)}")
    return "\n".join(out) + "\n"


def write_mesh(mesh: Mesh, path: str) -> None:
    """Write the plain-text mesh dump to a file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_mesh(mesh))
