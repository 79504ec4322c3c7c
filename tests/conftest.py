import pytest

from helmhdg.mesh import _finish_mesh, build_structured_mesh


@pytest.fixture
def uneven_boundary_mesh():
    """Builder of an n x n structured mesh with one boundary vertex slid
    along its side, so boundary edge lengths differ (the edge data rule,
    which takes the global mesh size, does not)."""

    def build(n):
        base = build_structured_mesh(n)
        vertices = base.vertices.copy()
        vertices[1, 0] += 0.4 / n
        return _finish_mesh(vertices, base.triangles.copy(), n=None)

    return build
