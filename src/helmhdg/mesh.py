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
batched helper (`element_geometry`) and stored on the mesh: per element
the Jacobian of its affine reference map and its determinant, and per
local face the length and the outward unit normal.  Every consumer (the
mesh checks, the local assembly, the boundary data, the error norms and
the projection check) reads these arrays for any set of element ids;
only `hdg verify`'s trace-inequality check calls the helper on a
triangle of its own.  The mesh alone decides which elements share a
local system: `Mesh.elem_class` numbers the congruence classes of
elements (equal Jacobian up to rounding noise of translated vertices,
and equal face orientations), which the condensation, the dissection
tree and the local-uniqueness check read, and nothing else: element data
take no class.  `Mesh.edge_points` places edge quadrature points along
the global edge direction for the boundary data and the trace error
alike, and `Mesh.element_points` maps reference points into elements,
each by its own Jacobian, for the source loads, the error norms, the
solution samples and the projection check.
`dissection_tree` cuts the elements recursively into a tree
whose translated nodes are grouped into congruence classes, which the
skeleton solver factors once per class.
Meshes are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Bounds (xmin, ymin, xmax, ymax) of the computational domain.
DOMAIN_BOUNDS = (-0.5, -0.5, 0.5, 0.5)

#: Tree nodes of at most this many elements are leaves of the
#: dissection tree.
ND_LEAF_SIZE = 32


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with edge connectivity and size metadata.

    Every int array is int32, which indexes meshes of up to 2^31 entries
    at half the memory of int64; a sort key that combines two indices
    (a vertex pair, an element's node and rank) is formed in int64.

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
    elem_class : (F,) int array, congruence class of each element: equal
        J / h_global rounded to 12 decimals and equal `elem_edge_orient`;
        classes are numbered in ascending order of their first element
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
    elem_class: np.ndarray
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

    def edge_points(self, edges: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Physical points at parameters t in [0, 1] along the global
        direction of each given edge, shape (len(edges), len(t), 2)."""
        a = self.vertices[self.edges[edges, 0]]
        b = self.vertices[self.edges[edges, 1]]
        return a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]

    def element_points(self, elements: np.ndarray | slice, ref_points: np.ndarray) -> np.ndarray:
        """Physical points x = v0 + J xhat of the nE given elements at the
        reference points (nq, 2), each mapped by its own J: (nE, nq, 2)."""
        v0 = self.vertices[self.triangles[elements, 0]]
        return v0[:, None, :] + ref_points @ np.swapaxes(self.jacobians[elements], -1, -2)

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
        inside = (self.vertices >= [xmin - 1e-12, ymin - 1e-12]) & (
            self.vertices <= [xmax + 1e-12, ymax + 1e-12])
        if not np.all(inside):
            vertex = int(np.flatnonzero(~inside.all(axis=1))[0])
            raise ValueError(
                f"vertex {vertex} at {tuple(self.vertices[vertex].tolist())} lies outside "
                f"the domain {DOMAIN_BOUNDS}"
            )
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


def element_geometry(corners: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
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

    # Square (i, j) has lower-left vertex j * (n + 1) + i; squares and
    # their two triangles run x-fastest.
    j, i = np.divmod(np.arange(n * n, dtype=np.int32), n)
    a = j * (n + 1) + i
    b, c, d = a + 1, a + n + 2, a + n + 1
    triangles = np.stack([a, b, c, a, c, d], axis=1).reshape(2 * n * n, 3)

    return _finish_mesh(vertices, triangles, n=n)


def _finish_mesh(vertices: np.ndarray, triangles: np.ndarray, n: int | None) -> Mesh:
    """Derive edge connectivity and size metadata from vertices/triangles."""
    triangles = np.asarray(triangles, dtype=np.int32)
    f = triangles.shape[0]
    face_from = triangles
    face_to = np.roll(triangles, -1, axis=1)
    lo = np.minimum(face_from, face_to)
    hi = np.maximum(face_from, face_to)

    # Sorting the keys lo * V + hi sorts the pairs (lo, hi) lexicographically;
    # they exceed int32 from about V = 2^15.5 on.
    n_vertices = vertices.shape[0]
    keys, inverse = np.unique((lo.astype(np.int64) * n_vertices + hi).ravel(), return_inverse=True)
    edges = np.column_stack([keys // n_vertices, keys % n_vertices]).astype(np.int32)
    n_edges = edges.shape[0]
    elem_edges = inverse.reshape(f, 3).astype(np.int32)
    elem_edge_orient = np.where(face_from == lo, 1, -1).astype(np.int32)

    # Incidences in element-major order: stable sort of the flattened
    # face -> edge map groups the 1-2 faces touching each edge.
    order = np.argsort(elem_edges.ravel(), kind="stable")
    counts = np.bincount(elem_edges.ravel(), minlength=n_edges)
    first = np.zeros(n_edges, dtype=np.int64)
    first[1:] = np.cumsum(counts)[:-1]
    elem_of = order // 3
    face_of = order % 3

    edge_to_elements = np.full((n_edges, 2, 2), -1, dtype=np.int32)
    edge_to_elements[:, 0, 0] = elem_of[first]
    edge_to_elements[:, 0, 1] = face_of[first]
    interior = counts == 2
    edge_to_elements[interior, 1, 0] = elem_of[first[interior] + 1]
    edge_to_elements[interior, 1, 1] = face_of[first[interior] + 1]

    boundary_flags = ~interior
    if np.any(counts > 2):
        raise ValueError("non-manifold mesh: an edge touches more than two elements")

    jacobians, dets, face_lengths, normals = element_geometry(vertices[triangles])
    # For structured meshes the mesh size is known in closed form; using it
    # makes h_global(2n) exactly half of h_global(n) in floating point.
    h_global = np.sqrt(2.0) / n if n is not None else float(face_lengths.max())
    # Congruence classes: J / h to 12 decimals as bit patterns (so 0.0 and
    # -0.0 stay apart) and the face orientations, renumbered in ascending
    # order of each class's first element.
    keys = np.round(jacobians / h_global, 12).reshape(f, 4).view(np.int64)
    by_key = _group_rows(np.column_stack([keys, elem_edge_orient]))
    first_elem = np.unique(by_key, return_index=True)[1]
    elem_class = np.unique(first_elem[by_key], return_inverse=True)[1].astype(np.int32)

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
        elem_class=elem_class,
        n=n,
    )
    mesh.validate()
    return mesh


@dataclass(frozen=True)
class DissectionTree:
    """Nested dissection of the elements, with congruent nodes grouped.

    A node is a set of elements; node 0 holds them all, and nodes are
    numbered level by level.  An edge is eliminated at the lowest node that
    holds both of its elements, a boundary edge at its element's leaf.  A
    node's interface is its edges with exactly one element inside it.  Its
    front lists its eliminated edges, then its interface edges, each side
    by side: by direction, then by the line the edge lies on, then along
    that line.  This order is invariant under translation, so translated
    nodes list corresponding edges in the same positions, and on grid
    lines it puts every child's interface on a few contiguous runs of its
    parent's front (at most 4 on structured meshes).  Nodes of one class
    are translates with equal element classes (`Mesh.elem_class`), equal
    boundary pattern and, for internal nodes, children of equal classes at
    equal offsets, so they share one dense front.  Classes are numbered in ascending height,
    so children's classes precede their parents'.  Like the mesh's, every
    array is int32.
    """

    children: np.ndarray  # (n_nodes, 2) left and right child, -1 for leaves
    node_class: np.ndarray  # (n_nodes,) congruence class of each node
    front_ptr: np.ndarray  # (n_nodes + 1,) node k's front is front_edges[ptr[k]:ptr[k + 1]]
    front_edges: np.ndarray  # eliminated then interface edges of every node
    n_elim: np.ndarray  # (n_nodes,) eliminated edges at the head of each front
    elem_leaf: np.ndarray  # (F,) leaf node of each element

    def front(self, node: int) -> np.ndarray:
        """Edges of one node's front: eliminated first, then interface."""
        return self.front_edges[self.front_ptr[node] : self.front_ptr[node + 1]]


def dissection_tree(mesh: Mesh) -> DissectionTree:
    """Recursive coordinate bisection of the elements, with the nodes
    grouped into congruence classes; leaves compare their elements by
    `Mesh.elem_class`.

    Each node of more than `ND_LEAF_SIZE` elements is cut across the longer
    extent of its element centroids, at the vertex coordinate nearest the
    median centroid (at the median rank if that leaves one side empty); the
    elements below the cut form the left child.  The coordinates are
    integers on a lattice of 2^-10 of the shortest face, so that rounding
    noise cannot make translated nodes cut, order or group differently.
    All steps run per tree level (or per height) on whole arrays.
    """
    f = mesh.n_elements
    quantum = mesh.face_lengths.min() * 2.0**-10
    q = np.rint((mesh.vertices - mesh.vertices.min(axis=0)) / quantum).astype(np.int64)
    cent = q[mesh.triangles].sum(axis=1)  # 3 x centroid
    # Distinct ranks of the centroids sorted by (x, y) and by (y, x), so
    # that one integer key sorts elements by node, then coordinate.
    place = np.empty((2, f), dtype=np.int64)
    for axis in range(2):
        place[axis, np.lexsort((cent[:, 1 - axis], cent[:, axis]))] = np.arange(f)
    levels, splits = _bisect(cent, place, [3 * np.unique(q[:, axis]) for axis in range(2)])
    n_nodes = 1 + max((first[-1] + 1 for _, first in splits), default=0)
    children = np.full((n_nodes, 2), -1, dtype=np.int32)
    height = np.zeros(n_nodes, dtype=np.int64)
    elem_leaf = np.max(levels, axis=0)
    ref = np.full((n_nodes, 2), np.iinfo(np.int64).max)  # least centroid per axis
    np.minimum.at(ref, elem_leaf, cent)
    for parents, first in splits[::-1]:
        children[parents] = first[:, None] + [0, 1]
        height[parents] = 1 + np.maximum(height[first], height[first + 1])
        ref[parents] = np.minimum(ref[first], ref[first + 1])

    # Fronts: (node, role, edge) with role 0 eliminated, 1 interface.
    e1 = mesh.edge_to_elements[:, 0, 0].astype(np.intp)  # indexes every level: convert once
    e2 = np.where(mesh.boundary_flags, e1, mesh.edge_to_elements[:, 1, 0])
    nodes, roles, edges = [], [], []
    for k, level in enumerate(levels):
        a, b = level[e1], level[e2]
        below = levels[k + 1] if k + 1 < len(levels) else np.full(f, -1)
        elim = (a >= 0) & (a == b) & ((below[e1] != below[e2]) | (below[e1] < 0))
        for sel, node, role in (
            (elim, a, 0), ((a >= 0) & (a != b), a, 1), ((b >= 0) & (a != b), b, 1),
        ):
            hit = np.flatnonzero(sel)
            nodes.append(node[hit])
            roles.append(np.full(hit.size, role, dtype=np.int8))
            edges.append(hit.astype(np.int32))
    nodes, roles, edges = (np.concatenate(x) for x in (nodes, roles, edges))
    # Side-major edge order: by direction (reduced, pointing right or up),
    # then by the line the edge lies on, then by its place along the line.
    d = q[mesh.edges[:, 1]] - q[mesh.edges[:, 0]]
    d //= np.gcd(d[:, 0], d[:, 1])[:, None]
    d[(d[:, 0] < 0) | ((d[:, 0] == 0) & (d[:, 1] < 0))] *= -1
    mid = q[mesh.edges].sum(axis=1)  # 2 x midpoint
    line = d[:, 0] * mid[:, 1] - d[:, 1] * mid[:, 0]
    along = d[:, 0] * mid[:, 0] + d[:, 1] * mid[:, 1]
    rank = np.empty(mesh.n_edges, dtype=np.int64)
    rank[np.lexsort((along, line, d[:, 1], d[:, 0]))] = np.arange(mesh.n_edges)
    order = np.argsort((2 * nodes.astype(np.int64) + roles) * mesh.n_edges + rank[edges])
    nodes, roles, edges = nodes[order], roles[order], edges[order]

    # Classes, height by height: a leaf's key is its elements' classes,
    # centroids relative to the node and boundary faces, in centroid order;
    # an internal node's key its children's classes and their offset.
    node_class = np.empty(n_nodes, dtype=np.int32)
    leaves = np.flatnonzero(children[:, 0] < 0)
    by_leaf = np.argsort(elem_leaf.astype(np.int64) * f + place[1])
    leaf = elem_leaf[by_leaf]
    faces = mesh.boundary_flags[mesh.elem_edges[by_leaf]] @ [1, 2, 4]
    keys = np.full((leaves.size, ND_LEAF_SIZE, 4), -1, dtype=np.int64)
    keys[np.searchsorted(leaves, leaf), np.arange(f) - np.searchsorted(leaf, leaf)] = (
        np.column_stack([mesh.elem_class[by_leaf], cent[by_leaf] - ref[leaf], faces]))
    node_class[leaves] = _group_rows(keys.reshape(leaves.size, -1))
    for h in range(1, height.max() + 1):
        n_classes = node_class[height < h].max() + 1
        at = np.flatnonzero(height == h)
        left, right = children[at, 0], children[at, 1]
        keys = np.column_stack([node_class[left], node_class[right], ref[right] - ref[left]])
        node_class[at] = n_classes + _group_rows(keys)
    front_ptr = np.concatenate([[0], np.cumsum(np.bincount(nodes, minlength=n_nodes))])
    n_elim = np.bincount(nodes[roles == 0], minlength=n_nodes)
    return DissectionTree(
        children=children, node_class=node_class, front_ptr=front_ptr.astype(np.int32),
        front_edges=edges, n_elim=n_elim.astype(np.int32), elem_leaf=elem_leaf,
    )


def _bisect(
    cent: np.ndarray, place: np.ndarray, grid: list[np.ndarray]
) -> tuple[list[np.ndarray], list[tuple[np.ndarray, np.ndarray]]]:
    """The levels of the bisection tree of integer centroids `cent`, with
    `place` their ranks in (x, y) and (y, x) order and `grid` the vertex
    lines of each axis in the same units: per level, the node of each
    element (-1 below its leaf), and per split level, the parents and
    their left children (right child = left + 1).  Nodes are numbered
    level by level, in ascending order within a level."""
    f = cent.shape[0]
    ids = np.arange(f)  # elements of the level's nodes, node-major
    nd = np.zeros(f, dtype=np.int64)  # their node, numbered within the level
    base = 0  # number of the level's first node
    levels, splits = [], []
    while True:
        count = np.bincount(nd)
        level = np.full(f, -1, dtype=np.int32)
        level[ids] = base + nd
        levels.append(level)
        keep = count[nd] > ND_LEAF_SIZE
        ids, nd = ids[keep], nd[keep]
        if ids.size == 0:
            return levels, splits
        parents = base + np.flatnonzero(count > ND_LEAF_SIZE)
        base += count.size
        count = count[count > ND_LEAF_SIZE]
        splits.append((parents, base + 2 * np.arange(count.size)))
        start = np.cumsum(count) - count
        last = start + count - 1
        seg = np.repeat(np.arange(count.size), count)
        c = cent[ids]
        by_x, by_y = (np.argsort(nd * f + place[axis, ids]) for axis in range(2))
        axis = (c[by_y[last], 1] - c[by_y[start], 1] > c[by_x[last], 0] - c[by_x[start], 0])
        axis = axis.astype(np.int64)
        order = np.where(axis[seg] == 1, by_y, by_x)
        coord = c[order, axis[seg]]
        median = coord[start + (count - 1) // 2]
        cut = np.empty(count.size, dtype=np.int64)
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


def _group_rows(rows: np.ndarray) -> np.ndarray:
    """Class of each row of an integer array: equal rows share one, and
    classes are numbered 0, 1, ... in lexicographic order of the rows."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    classes = np.empty(len(rows), dtype=np.int64)
    classes[order] = np.cumsum(np.r_[True, np.any(ranked[1:] != ranked[:-1], axis=1)]) - 1
    return classes


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
