"""Unstructured meshes of the unit square shared by the mesh and skeleton
tests: no two of their elements, or few, are translates of each other."""

import numpy as np

from helmhdg.mesh import _finish_mesh, build_structured_mesh


def perturbed_mesh():
    """The 2 x 2 structured mesh with its center vertex moved."""
    base = build_structured_mesh(2)
    vertices = base.vertices.copy()
    center = np.argmin(np.abs(vertices).sum(axis=1))
    vertices[center] += [0.05, -0.03]
    return _finish_mesh(vertices, base.triangles.copy(), n=None)


def fan_strip_mesh():
    """32 slivers fan from the left side to M = (-0.45, 0); six triangles
    fan around P = (0.4, 0) over the rest of the square.

    The centroids spread more in x than in y, and the median centroid x
    (-0.483, a sliver's) is nearer the vertex coordinate x = -0.5 than
    x = -0.45, so the root's vertex cut of the dissection tree leaves its
    left side empty and the median-rank fallback splits it.
    """
    k = 32
    left = np.column_stack([np.full(k + 1, -0.5), np.linspace(-0.5, 0.5, k + 1)])
    vertices = np.vstack([left, [[-0.45, 0.0], [0.4, 0.0], [0.5, -0.5], [0.5, 0.0], [0.5, 0.5]]])
    m, p, r0, r1, r2 = range(k + 1, k + 6)
    triangles = np.array(
        [[i, m, i + 1] for i in range(k)]
        + [[p, 0, r0], [p, r0, r1], [p, r1, r2], [p, r2, k], [p, k, m], [p, m, 0]]
    )
    return _finish_mesh(vertices, triangles, n=None)


def jittered_mesh(n: int = 8):
    """The n x n structured mesh with every interior vertex moved by a
    seeded offset of up to 0.1 / n per coordinate, so every element is its
    own congruence class."""
    base = build_structured_mesh(n)
    vertices = base.vertices.copy()
    interior = np.all(np.abs(vertices) < 0.5, axis=1)
    offsets = np.random.default_rng(7).uniform(-0.1 / n, 0.1 / n, size=vertices.shape)
    vertices[interior] += offsets[interior]
    return _finish_mesh(vertices, base.triangles.copy(), n=None)
