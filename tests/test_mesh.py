import math

import numpy as np
import pytest

from helmhdg.mesh import (
    _finish_mesh,
    build_structured_mesh,
    element_geometry,
    format_mesh,
    ND_LEAF_SIZE,
    dissection_tree,
    write_mesh,
)
from meshes import fan_strip_mesh, jittered_mesh, perturbed_mesh


def test_single_square_split():
    mesh = build_structured_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_elements == 2
    assert mesh.n_edges == 5
    assert int(mesh.boundary_flags.sum()) == 4
    assert int((~mesh.boundary_flags).sum()) == 1


def test_euler_relation_n2():
    mesh = build_structured_mesh(2)
    assert (mesh.n_vertices, mesh.n_elements, mesh.n_edges) == (9, 8, 16)
    assert mesh.n_vertices - mesh.n_edges + mesh.n_elements == 1


def test_h_global_n4():
    mesh = build_structured_mesh(4)
    assert mesh.h_global == pytest.approx(math.sqrt(2.0) / 4.0, abs=1e-15)


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(0)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_invariants_hold(n):
    mesh = build_structured_mesh(n)
    mesh.validate()
    incidences = np.sum(mesh.edge_to_elements[:, :, 0] >= 0, axis=1)
    assert np.all(incidences[mesh.boundary_flags] == 1)
    assert np.all(incidences[~mesh.boundary_flags] == 2)
    areas = 0.5 * mesh.dets
    assert abs(sum(areas) - 1.0) <= 1e-12


def test_refinement_halves_h_exactly():
    for n in (1, 2, 4, 7):
        assert build_structured_mesh(2 * n).h_global == build_structured_mesh(n).h_global / 2.0


def test_element_geometry_basics():
    mesh = build_structured_mesh(1)
    x, y = mesh.vertices[mesh.triangles[0]].T
    area = 0.5 * abs(x @ np.roll(y, -1) - y @ np.roll(x, -1))  # shoelace
    assert area == pytest.approx(0.5)
    assert abs(mesh.dets[0]) == pytest.approx(2.0 * area)
    assert np.allclose(np.linalg.norm(mesh.normals[0], axis=1), 1.0, atol=1e-14)
    # affine map is invertible and hits the vertices
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(mesh.element_points([0], ref)[0],
                       mesh.vertices[mesh.triangles[0]])


@pytest.mark.parametrize("make_mesh", [lambda: build_structured_mesh(4), jittered_mesh],
                         ids=["structured", "jittered"])
def test_element_points_match_the_per_element_map(make_mesh):
    mesh = make_mesh()
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.2, 0.3], [0.6, 0.1]])
    want = np.stack([mesh.vertices[mesh.triangles[elem, 0]] + ref @ mesh.jacobians[elem].T
                     for elem in range(mesh.n_elements)])
    # Each element's own Jacobian, for all elements, a range and a list.
    assert np.array_equal(mesh.element_points(slice(None), ref), want)
    assert np.array_equal(mesh.element_points(slice(3, 9), ref), want[3:9])
    assert np.array_equal(mesh.element_points([7, 2], ref), want[[7, 2]])


def test_normals_sum_to_zero_weighted_by_length():
    mesh = build_structured_mesh(3)
    for elem in range(mesh.n_elements):
        total = (mesh.normals[elem] * mesh.face_lengths[elem, :, None]).sum(axis=0)
        assert np.abs(total).max() <= 1e-14


def test_uniform_diameters_n2():
    mesh = build_structured_mesh(2)
    for elem in range(mesh.n_elements):
        assert mesh.face_lengths[elem].max() == pytest.approx(math.sqrt(2.0) / 2.0)


@pytest.mark.filterwarnings("error")
def test_degenerate_element_rejected():
    # One-triangle meshes: topologically valid, refused by `Mesh.validate`.
    def build(corners):
        return _finish_mesh(np.array(corners), np.array([[0, 1, 2]]), n=None)

    with pytest.raises(ValueError, match="degenerate"):
        build([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):  # negatively oriented
        build([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    # A repeated vertex: a zero-length face, with no warning.
    with pytest.raises(ValueError, match="degenerate"):
        build([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_shared_edges_traverse_same_physical_points(n):
    # Single-valuedness of trace dofs: mapping local face parameters
    # through each side's orientation flag must land on identical
    # physical points in identical order.
    mesh = build_structured_mesh(n)
    t = np.linspace(0.0, 1.0, 5)
    for edge in np.flatnonzero(~mesh.boundary_flags):
        sides = []
        for elem, face in mesh.edge_to_elements[edge]:
            corners = mesh.vertices[mesh.triangles[elem]]
            a = corners[face]
            b = corners[(face + 1) % 3]
            s = t if mesh.elem_edge_orient[elem, face] == 1 else 1.0 - t
            sides.append(a + s[:, None] * (b - a))
        assert np.abs(sides[0] - sides[1]).max() <= 1e-15


def test_opposite_sides_have_opposite_normals():
    mesh = build_structured_mesh(3)
    for edge in np.flatnonzero(~mesh.boundary_flags):
        (e1, f1), (e2, f2) = mesh.edge_to_elements[edge]
        n1 = mesh.normals[e1, f1]
        n2 = mesh.normals[e2, f2]
        assert np.abs(n1 + n2).max() <= 1e-14


def test_mesh_dump_sections(tmp_path):
    mesh = build_structured_mesh(2)
    path = tmp_path / "mesh.txt"
    write_mesh(mesh, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "vertices 9"
    tri_at = lines.index("triangles 8")
    edge_at = lines.index("edges 16")
    assert tri_at == 10  # header + 9 vertex lines
    assert edge_at == tri_at + 9
    assert len(lines) == edge_at + 17
    # edge lines end with the boundary flag
    flags = [int(line.split()[-1]) for line in lines[edge_at + 1 :]]
    assert sum(flags) == int(mesh.boundary_flags.sum())
    assert format_mesh(mesh) == path.read_text()


def test_validate_rejects_vertices_outside_the_domain():
    # A unit-area mesh shifted off the centered unit square passes every
    # other check.
    base = build_structured_mesh(2)
    with pytest.raises(ValueError, match="outside the domain"):
        _finish_mesh(base.vertices + [0.5, 0.0], base.triangles.copy(), n=None)
    nudged = base.vertices.copy()
    nudged[nudged[:, 0] == 0.5, 0] += 5e-13  # within the slack
    _finish_mesh(nudged, base.triangles.copy(), n=None)


def _eliminated(tree, nodes):
    return np.concatenate([tree.front(k)[: tree.n_elim[k]] for k in nodes])


def _subtree(tree, node):
    nodes = [node]
    for k in nodes:
        nodes += [int(c) for c in tree.children[k] if c >= 0]
    return nodes


@pytest.mark.parametrize("make", [
    lambda: build_structured_mesh(1),
    lambda: build_structured_mesh(2),
    lambda: build_structured_mesh(8),
    perturbed_mesh,
    fan_strip_mesh,
], ids=["n1", "n2", "n8", "perturbed", "fan-strip"])
def test_nested_dissection_is_a_repeatable_permutation(make):
    # Every edge is eliminated at exactly one tree node, and a rebuilt mesh
    # gives the same tree.
    mesh = make()
    tree = dissection_tree(mesh)
    order = _eliminated(tree, range(tree.n_elim.size))
    assert np.array_equal(np.sort(order), np.arange(mesh.n_edges))
    again = dissection_tree(make())
    for name in ("children", "node_class", "front_ptr", "front_edges", "n_elim", "elem_leaf"):
        assert np.array_equal(getattr(tree, name), getattr(again, name))


def _held(mesh, tree, node):
    """Edges whose every element lies in the node's subtree, and interior
    edges with exactly one element there."""
    inside = np.isin(tree.elem_leaf, _subtree(tree, node))
    incident = mesh.edge_to_elements[:, :, 0]
    count = np.where(incident >= 0, inside[incident], False).sum(axis=1)
    return count == np.where(mesh.boundary_flags, 1, 2), (count == 1) & ~mesh.boundary_flags


@pytest.mark.parametrize("make", [
    lambda: build_structured_mesh(12), fan_strip_mesh, jittered_mesh,
], ids=["n12", "fan-strip", "jittered"])
def test_dissection_tree_fronts_follow_the_elements(make):
    # A node eliminates the edges it holds and no child holds, and its
    # interface is its interior edges with one element inside; leaves hold
    # at most ND_LEAF_SIZE elements.
    mesh = make()
    tree = dissection_tree(mesh)
    assert np.bincount(tree.elem_leaf).max() <= ND_LEAF_SIZE
    for node in range(tree.n_elim.size):
        held, interface = _held(mesh, tree, node)
        for child in tree.children[node]:
            if child >= 0:
                held &= ~_held(mesh, tree, child)[0]
        front = tree.front(node)
        assert sorted(front[: tree.n_elim[node]]) == np.flatnonzero(held).tolist()
        assert sorted(front[tree.n_elim[node] :]) == np.flatnonzero(interface).tolist()


def test_vertex_cut_that_empties_a_side_falls_back_to_the_median_rank():
    mesh = fan_strip_mesh()
    tree = dissection_tree(mesh)
    assert np.bincount(tree.elem_leaf).tolist() == [0, 19, 19]


@pytest.mark.parametrize("make", [
    lambda: build_structured_mesh(1),
    lambda: build_structured_mesh(8),
    perturbed_mesh,
    fan_strip_mesh,
], ids=["n1", "n8", "perturbed", "fan-strip"])
def test_stored_geometry_matches_element_geometry(make):
    # The mesh stores `element_geometry` of all its elements at once; the
    # same helper on one element's corners alone must agree bit for bit,
    # in every array.
    mesh = make()
    for elem in range(mesh.n_elements):
        jac, det, lengths, normals = element_geometry(mesh.vertices[mesh.triangles[elem]][None])
        assert np.array_equal(mesh.jacobians[elem], jac[0])
        assert np.array_equal(mesh.dets[elem], det[0])
        assert np.array_equal(mesh.face_lengths[elem], lengths[0])
        assert np.array_equal(mesh.normals[elem], normals[0])
    assert mesh.h_global == (math.sqrt(2.0) / mesh.n if mesh.n else mesh.face_lengths.max())


def _grouping_reference(mesh):
    # Per-element dict loop: classes in first-appearance order, each keyed
    # by the bytes of its rounded Jacobian and orientation pattern.
    v, t = mesh.vertices, mesh.triangles
    jac = np.stack([v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]], axis=2)
    keys = np.round(jac / mesh.h_global, 12).reshape(mesh.n_elements, 4)
    groups = {}
    for elem in range(mesh.n_elements):
        key = keys[elem].tobytes() + mesh.elem_edge_orient[elem].tobytes()
        groups.setdefault(key, []).append(elem)
    return list(groups.values())


@pytest.mark.parametrize("make, n_classes", [
    (lambda: build_structured_mesh(8), 2), (perturbed_mesh, 8), (jittered_mesh, 128),
], ids=["structured-n8", "perturbed", "jittered"])
def test_elem_class_matches_per_element_loop(make, n_classes):
    # Class k holds the elements of the k-th key to appear, in ascending
    # order; on the jittered mesh every element is its own class.
    mesh = make()
    reference = _grouping_reference(mesh)
    assert mesh.elem_class.shape == (mesh.n_elements,)
    assert mesh.elem_class.max() + 1 == len(reference) == n_classes
    for k, ids in enumerate(reference):
        assert np.flatnonzero(mesh.elem_class == k).tolist() == ids


def test_nested_dissection_ends_with_the_middle_grid_line():
    # The root cut of an 8 x 8 grid is the grid line x = 0; its 8 edges
    # are the separator of the whole mesh, so the root eliminates them.
    mesh = build_structured_mesh(8)
    tree = dissection_tree(mesh)
    root = mesh.edges[tree.front(0)]
    assert tree.n_elim[0] == 8 and root.shape[0] == 8
    assert np.all(mesh.vertices[root][:, :, 0] == 0.0)


def test_nested_dissection_separates_its_subtrees():
    # No edge eliminated in the left subtree shares an element with an
    # edge eliminated in the right subtree.
    mesh = build_structured_mesh(8)
    tree = dissection_tree(mesh)
    elements = [set(mesh.edge_to_elements[_eliminated(tree, _subtree(tree, child)), :, 0].ravel()) - {-1}
                for child in tree.children[0]]
    assert not elements[0] & elements[1]


@pytest.mark.parametrize("n", [20, 33])
def test_dissection_classes_are_translates(n):
    # The members of one class list translated edges in the same front
    # positions, with equal elimination counts and boundary flags, and
    # their leaves hold translated elements with equal labels.
    mesh = build_structured_mesh(n)
    labels = mesh.elem_class
    assert np.array_equal(labels, np.arange(mesh.n_elements) % 2)  # the two triangles of a square
    tree = dissection_tree(mesh)
    assert tree.node_class.max() + 1 < tree.n_elim.size
    mid = mesh.vertices[mesh.edges].mean(axis=1)
    cent = mesh.vertices[mesh.triangles].mean(axis=1)

    def leaf_pattern(leaf, shift):
        elems = np.flatnonzero(tree.elem_leaf == leaf)
        rel = np.round(cent[elems] - shift, 9)
        order = np.lexsort(rel.T)
        return rel[order], labels[elems[order]]

    for c in range(tree.node_class.max() + 1):
        nodes = np.flatnonzero(tree.node_class == c)
        fronts = np.array([tree.front(k) for k in nodes])
        shift = mid[fronts[:, 0]] - mid[fronts[0, 0]]
        assert np.abs(mid[fronts] - shift[:, None] - mid[fronts[0]]).max() <= 1e-12
        assert np.all(tree.n_elim[nodes] == tree.n_elim[nodes[0]])
        assert np.all(mesh.boundary_flags[fronts] == mesh.boundary_flags[fronts[0]])
        if tree.children[nodes[0], 0] < 0:
            rel0, labels0 = leaf_pattern(nodes[0], 0.0)
            for k, s in zip(nodes[1:], shift[1:]):
                rel, lab = leaf_pattern(k, s)
                assert np.abs(rel - rel0).max() <= 1e-9 and np.array_equal(lab, labels0)


@pytest.mark.parametrize("n", [8, 22, 63, 116])
def test_child_interfaces_are_few_runs_of_the_parent_front(n):
    # Fronts list edges side by side, so every child's interface lands on
    # at most 4 contiguous runs of its parent's front: the extend-add adds
    # it by slices.
    mesh = build_structured_mesh(n)
    tree = dissection_tree(mesh)
    slot = np.empty(mesh.n_edges, dtype=np.int64)
    runs = []
    for node in np.flatnonzero(tree.children[:, 0] >= 0):
        slot[tree.front(node)] = np.arange(tree.front(node).size)
        for child in tree.children[node]:
            slots = slot[tree.front(child)[tree.n_elim[child] :]]
            runs.append(1 + np.count_nonzero(np.diff(slots) != 1))
    assert max(runs) <= 4


def test_dissection_tree_without_congruence_has_one_class_per_node():
    mesh = jittered_mesh()
    assert np.array_equal(mesh.elem_class, np.arange(mesh.n_elements))
    tree = dissection_tree(mesh)
    assert tree.n_elim.size > 1
    assert np.array_equal(np.sort(tree.node_class), np.arange(tree.n_elim.size))


def test_int64_sort_keys_keep_the_n256_mesh_and_tree():
    # The index arrays are int32, but at n = 256 the edge keys lo V + hi
    # reach 4.3e9 and the front keys (2 node + role) E + rank 3.2e9, past
    # 2^31: formed in int32 they would wrap.  The edges stay the sorted
    # vertex pairs of the faces, every edge is eliminated at one node, and
    # the tree keeps the 94 node classes and the sum of n_I n_B at p = 2
    # that int64 index arrays gave.
    mesh = build_structured_mesh(256)
    assert mesh.triangles.dtype == mesh.edges.dtype == np.int32
    faces = np.stack([mesh.triangles, np.roll(mesh.triangles, -1, axis=1)], axis=2)
    assert np.array_equal(mesh.edges[mesh.elem_edges], np.sort(faces, axis=2))
    lo, hi = mesh.edges.T.astype(np.int64)
    assert np.all(np.diff(lo * mesh.n_vertices + hi) > 0)
    tree = dissection_tree(mesh)
    assert tree.front_edges.dtype == tree.node_class.dtype == np.int32
    order = _eliminated(tree, range(tree.n_elim.size))
    assert np.array_equal(np.sort(order), np.arange(mesh.n_edges))
    reps = np.unique(tree.node_class, return_index=True)[1]
    n_i = 3 * tree.n_elim[reps].astype(np.int64)
    n_b = 3 * np.diff(tree.front_ptr)[reps] - n_i
    assert (reps.size, int(n_i @ n_b)) == (94, 4_234_752)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_structured_triangles_match_per_square_loop(n):
    # Squares x-fastest, each split into (a, b, c) and (a, c, d) with a its
    # lower-left vertex and b, c, d counterclockwise from it.
    def vid(i, j):
        return j * (n + 1) + i

    triangles = []
    for j in range(n):
        for i in range(n):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), vid(i, j + 1)
            triangles += [(a, b, c), (a, c, d)]
    mesh = build_structured_mesh(n)
    assert mesh.triangles.dtype == np.int32
    assert np.array_equal(mesh.triangles, np.array(triangles))


@pytest.mark.parametrize("make", [
    lambda: build_structured_mesh(1),
    lambda: build_structured_mesh(7),
    perturbed_mesh,
    fan_strip_mesh,
], ids=["n1", "n7", "perturbed", "fan-strip"])
def test_edges_match_row_deduplication(make):
    # The (lo, hi) rows of the faces, deduplicated row-wise, give the same
    # sorted edges and face -> edge map as the 1-D keys the builder sorts.
    mesh = make()
    face_to = np.roll(mesh.triangles, -1, axis=1)
    pairs = np.column_stack([
        np.minimum(mesh.triangles, face_to).ravel(), np.maximum(mesh.triangles, face_to).ravel(),
    ])
    edges, inverse = np.unique(pairs, axis=0, return_inverse=True)
    assert np.array_equal(mesh.edges, edges)
    assert np.array_equal(mesh.elem_edges, inverse.reshape(-1, 3))
