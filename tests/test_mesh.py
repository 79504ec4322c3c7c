import math

import numpy as np
import pytest

from helmhdg.mesh import (
    ElementGeometry,
    _finish_mesh,
    build_structured_mesh,
    format_mesh,
    mesh_entities,
    nested_dissection_edges,
    write_mesh,
)


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
    areas = [mesh_entities(mesh, e).area for e in range(mesh.n_elements)]
    assert abs(sum(areas) - 1.0) <= 1e-12


def test_refinement_halves_h_exactly():
    for n in (1, 2, 4, 7):
        assert build_structured_mesh(2 * n).h_global == build_structured_mesh(n).h_global / 2.0


def test_element_geometry_basics():
    mesh = build_structured_mesh(1)
    geom = mesh_entities(mesh, 0)
    assert geom.area == pytest.approx(0.5)
    assert abs(geom.det) == pytest.approx(2.0 * geom.area)
    assert np.allclose(np.linalg.norm(geom.normals, axis=1), 1.0, atol=1e-14)
    # affine map is invertible and hits the vertices
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(geom.map_to_physical(ref), geom.vertices)


def test_normals_sum_to_zero_weighted_by_length():
    mesh = build_structured_mesh(3)
    for elem in range(mesh.n_elements):
        geom = mesh_entities(mesh, elem)
        total = (geom.normals * geom.face_lengths[:, None]).sum(axis=0)
        assert np.abs(total).max() <= 1e-14


def test_uniform_diameters_n2():
    mesh = build_structured_mesh(2)
    for elem in range(mesh.n_elements):
        assert mesh_entities(mesh, elem).h == pytest.approx(math.sqrt(2.0) / 2.0)


def test_out_of_range_element_rejected():
    mesh = build_structured_mesh(2)
    with pytest.raises(IndexError):
        mesh_entities(mesh, 8)
    with pytest.raises(IndexError):
        mesh_entities(mesh, -1)


@pytest.mark.filterwarnings("error")
def test_degenerate_element_rejected():
    with pytest.raises(ValueError):
        ElementGeometry.from_vertices([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError):  # negatively oriented
        ElementGeometry.from_vertices([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):  # repeated vertex: a zero-length face, no warning
        ElementGeometry.from_vertices([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])


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
            geom = mesh_entities(mesh, int(elem))
            a = geom.vertices[face]
            b = geom.vertices[(face + 1) % 3]
            s = t if geom.edge_orient[face] == 1 else 1.0 - t
            sides.append(a + s[:, None] * (b - a))
        assert np.abs(sides[0] - sides[1]).max() <= 1e-15


def test_opposite_sides_have_opposite_normals():
    mesh = build_structured_mesh(3)
    for edge in np.flatnonzero(~mesh.boundary_flags):
        (e1, f1), (e2, f2) = mesh.edge_to_elements[edge]
        n1 = mesh_entities(mesh, int(e1)).normals[int(f1)]
        n2 = mesh_entities(mesh, int(e2)).normals[int(f2)]
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


def _perturbed_mesh():
    base = build_structured_mesh(2)
    vertices = base.vertices.copy()
    center = np.argmin(np.abs(vertices).sum(axis=1))
    vertices[center] += [0.05, -0.03]
    return _finish_mesh(vertices, base.triangles.copy(), n=None)


def _fan_strip_mesh():
    # A 4 x 0.25 strip (unit area): 8 triangles fan from the left side to
    # the lower-right corner, one spans the right side.  Eight of nine
    # centroids share x = -2/3, whose nearest vertex coordinate is x = -2,
    # so the vertex cut leaves the left side empty.
    left = np.column_stack([np.full(9, -2.0), np.linspace(-0.125, 0.125, 9)])
    vertices = np.vstack([left, [[2.0, -0.125], [2.0, 0.125]]])
    triangles = np.array([[i, 9, i + 1] for i in range(8)] + [[8, 9, 10]])
    return _finish_mesh(vertices, triangles, n=None)


@pytest.mark.parametrize("make", [
    lambda: build_structured_mesh(1),
    lambda: build_structured_mesh(2),
    lambda: build_structured_mesh(8),
    _perturbed_mesh,
    _fan_strip_mesh,
], ids=["n1", "n2", "n8", "perturbed", "fan-strip"])
def test_nested_dissection_is_a_repeatable_permutation(make):
    mesh = make()
    order = nested_dissection_edges(mesh)
    assert np.array_equal(np.sort(order), np.arange(mesh.n_edges))
    assert np.array_equal(order, nested_dissection_edges(make()))


@pytest.mark.parametrize("make", [
    lambda: build_structured_mesh(1),
    lambda: build_structured_mesh(8),
    _perturbed_mesh,
    _fan_strip_mesh,
], ids=["n1", "n8", "perturbed", "fan-strip"])
def test_stored_geometry_matches_element_geometry(make):
    # The batched arrays on the mesh and the one-element path must agree
    # bit for bit: the solve reads the former, the oracle the latter.
    mesh = make()
    for elem in range(mesh.n_elements):
        geom = mesh_entities(mesh, elem)
        assert np.array_equal(mesh.jacobians[elem], geom.jacobian)
        assert np.array_equal(mesh.dets[elem], geom.det)
        assert np.array_equal(mesh.face_lengths[elem], geom.face_lengths)
        assert np.array_equal(mesh.normals[elem], geom.normals)
    assert mesh.h_global == (math.sqrt(2.0) / mesh.n if mesh.n else mesh.face_lengths.max())


def test_nested_dissection_ends_with_the_middle_grid_line():
    # The root cut of an 8 x 8 grid is the grid line x = 0; its 8 edges
    # are the separator of the whole mesh, so they come last.
    mesh = build_structured_mesh(8)
    last = mesh.edges[nested_dissection_edges(mesh)[-8:]]
    assert np.all(mesh.vertices[last][:, :, 0] == 0.0)


def test_nested_dissection_separates_its_subtrees():
    # Post-order: no edge of the left subtree (the first edges, before the
    # right subtree and the root separator) shares an element with an edge
    # of the right subtree.
    mesh = build_structured_mesh(8)
    order = nested_dissection_edges(mesh)
    half = (mesh.n_edges - 8) // 2
    elements = [set(mesh.edge_to_elements[edges, :, 0].ravel()) - {-1}
                for edges in (order[:half], order[half:-8])]
    assert not elements[0] & elements[1]
