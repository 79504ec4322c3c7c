import math

import numpy as np
import pytest
from scipy.special import roots_jacobi

from helmhdg.mesh import element_geometry
from helmhdg.polybasis import (
    REF_VERTICES,
    EdgeBasis,
    TriangleBasis,
    _gauss_jacobi_10,
    quadrature_rule,
    reference_face_points,
)

# Brute-force sup of ||v||_dT sqrt(h)/(p ||v||_T) over the coefficient
# sphere on the reference element (p = 1 is the worst order); frozen from
# the maximization in test_trace_inequality_constant_is_sharp below.
TRACE_CONSTANT = 4.4261


def _interior_points(rng, count, margin=0.01):
    a = rng.random((count, 2))
    pts = np.column_stack([a[:, 0] * (1.0 - a[:, 1]), a[:, 1]])
    return pts * (1.0 - 2.0 * margin) + margin


@pytest.mark.parametrize("p,dim", [(1, 3), (2, 6), (3, 10)])
def test_triangle_dimension(p, dim):
    vals, grads = TriangleBasis(p).eval_with_grad(np.array([[0.25, 0.25]]))
    assert vals.shape == (1, dim)
    assert grads.shape == (1, dim, 2)


def test_first_member_is_constant_sqrt2():
    pts = np.array([[0.1, 0.2], [0.3, 0.3], [0.0, 0.0], [0.5, 0.5]])
    vals = TriangleBasis(3).eval(pts)
    assert np.allclose(vals[:, 0], math.sqrt(2.0), atol=1e-14)


@pytest.mark.parametrize("p", [1, 2, 3, 5, 8, 10])
def test_triangle_gram_identity(p):
    basis = TriangleBasis(p)
    rule = quadrature_rule("triangle", 2 * p)
    vals = basis.eval(rule.points)
    gram = vals.T @ (rule.weights[:, None] * vals)
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_monomial_span_reproduced(p):
    basis = TriangleBasis(p)
    rule = quadrature_rule("triangle", 2 * p)
    rng = np.random.default_rng(11)
    pts = _interior_points(rng, 40)
    vals_at_pts = basis.eval(pts)
    vals_at_quad = basis.eval(rule.points)
    for a in range(p + 1):
        for b in range(p + 1 - a):
            mono = rule.points[:, 0] ** a * rule.points[:, 1] ** b
            coeff = vals_at_quad.T @ (rule.weights * mono)
            recon = vals_at_pts @ coeff
            assert np.abs(recon - pts[:, 0] ** a * pts[:, 1] ** b).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 3, 6, 10])
def test_gradients_match_finite_differences(p):
    basis = TriangleBasis(p)
    rng = np.random.default_rng(5)
    pts = _interior_points(rng, 20)
    _, grads = basis.eval_with_grad(pts)
    h = 1e-6
    fd_x = (basis.eval(pts + [h, 0.0]) - basis.eval(pts - [h, 0.0])) / (2 * h)
    fd_y = (basis.eval(pts + [0.0, h]) - basis.eval(pts - [0.0, h])) / (2 * h)
    assert np.abs(grads[:, :, 0] - fd_x).max() <= 1e-6
    assert np.abs(grads[:, :, 1] - fd_y).max() <= 1e-6


@pytest.mark.parametrize("p", [1, 3, 6, 10])
def test_vertex_and_face_values_match_monomial_fit(p):
    # Oracle: every member is a polynomial of degree <= p, so its monomial
    # expansion about the centroid, fitted by least squares at interior
    # points, gives its values and gradients on the closed triangle,
    # where a central difference would step outside.
    basis = TriangleBasis(p)
    exps = [(a, d - a) for d in range(p + 1) for a in range(d + 1)]

    def monomials(pts):
        x, y = pts[:, 0] - 1.0 / 3.0, pts[:, 1] - 1.0 / 3.0
        vals = np.column_stack([x**a * y**b for a, b in exps])
        dx = np.column_stack([a * x ** max(a - 1, 0) * y**b for a, b in exps])
        dy = np.column_stack([b * x**a * y ** max(b - 1, 0) for a, b in exps])
        return vals, dx, dy

    fit_pts = _interior_points(np.random.default_rng(7), 4 * basis.dim)
    coeff = np.linalg.lstsq(monomials(fit_pts)[0], basis.eval(fit_pts), rcond=None)[0]
    t = np.linspace(0.0, 1.0, 7)
    pts = np.vstack([REF_VERTICES] + [reference_face_points(f, t) for f in range(3)])
    vals, grads = basis.eval_with_grad(pts)
    mono, mono_dx, mono_dy = monomials(pts)
    assert np.abs(vals - mono @ coeff).max() <= 1e-9 * np.abs(vals).max()
    for d, mono_d in enumerate((mono_dx, mono_dy)):
        assert np.abs(grads[:, :, d] - mono_d @ coeff).max() <= 1e-9 * np.abs(grads).max()


@pytest.mark.parametrize("p,dim", [(1, 2), (2, 3), (3, 4)])
def test_edge_dimension(p, dim):
    assert EdgeBasis(p).eval(np.array([0.5])).shape == (1, dim)


@pytest.mark.parametrize("p", [1, 4, 10])
def test_edge_gram_identity(p):
    basis = EdgeBasis(p)
    rule = quadrature_rule("edge", 2 * p)
    vals = basis.eval(rule.points)
    gram = vals.T @ (rule.weights[:, None] * vals)
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12


def test_edge_reproduces_linear_function():
    # Hand oracle: project t onto span{psi_0, psi_1} by solving the 2x2
    # normal equations assembled with an independent 3-point rule.
    basis = EdgeBasis(1)
    rule = quadrature_rule("edge", 5)
    vals = basis.eval(rule.points)
    gram = vals.T @ (rule.weights[:, None] * vals)
    rhs = vals.T @ (rule.weights * rule.points)
    coeff_oracle = np.linalg.solve(gram, rhs)
    assert np.allclose(coeff_oracle, [0.5, math.sqrt(3.0) / 6.0], atol=1e-14)
    t = np.linspace(0.0, 1.0, 7)
    assert np.abs(basis.eval(t) @ coeff_oracle - t).max() <= 1e-14


def test_unsupported_orders_rejected():
    with pytest.raises(ValueError):
        TriangleBasis(0)
    with pytest.raises(ValueError):
        TriangleBasis(11)
    with pytest.raises(ValueError):
        EdgeBasis(0)


def test_points_outside_reference_domain_rejected():
    with pytest.raises(ValueError):
        TriangleBasis(2).eval(np.array([[0.7, 0.7]]))
    with pytest.raises(ValueError):
        EdgeBasis(2).eval(np.array([1.5]))


def test_triangle_quadrature_basics():
    for degree in (0, 2, 7):
        rule = quadrature_rule("triangle", degree)
        assert rule.weights.min() > 0
        assert abs(rule.weights.sum() - 0.5) <= 1e-15
    rule = quadrature_rule("triangle", 1)
    assert abs(float(rule.weights @ rule.points[:, 0]) - 1.0 / 6.0) <= 1e-15


def test_edge_quadrature_gauss_exactness():
    rule = quadrature_rule("edge", 3)
    assert rule.n_points == 2
    assert abs(float(rule.weights @ rule.points**3) - 0.25) <= 1e-15


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 5, 9, 14, 20])
def test_quadrature_exactness_sweep(degree):
    rule = quadrature_rule("triangle", degree)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            exact = math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)
            got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            assert abs(got - exact) <= 1e-13 * max(exact, 1.0)
    erule = quadrature_rule("edge", degree)
    for a in range(degree + 1):
        assert abs(float(erule.weights @ erule.points**a) - 1.0 / (a + 1)) <= 1e-14


@pytest.mark.parametrize("domain", ["edge", "triangle"])
def test_quadrature_rule_is_built_once_and_read_only(domain):
    rule = quadrature_rule(domain, 7)
    assert quadrature_rule(domain, 7) is rule
    for array in (rule.points, rule.weights):
        with pytest.raises(ValueError):
            array[0] = 0.5


def test_quadrature_rejects_bad_arguments():
    with pytest.raises(ValueError):
        quadrature_rule("triangle", -1)
    with pytest.raises(ValueError):
        quadrature_rule("square", 2)


def _triangle(corners):
    """det J and face lengths of the triangle with these corners."""
    _, det, lengths, _ = element_geometry(np.array([corners], dtype=float))
    return det[0], lengths[0]


def _trace_ratios(corners, p, coeffs):
    det, lengths = _triangle(corners)
    rule = quadrature_rule("edge", 2 * p)
    basis = TriangleBasis(p)
    boundary_sq = np.zeros(coeffs.shape[0])
    for face in range(3):
        phi = basis.eval(reference_face_points(face, rule.points)) / math.sqrt(det)
        boundary_sq += lengths[face] * (np.abs(coeffs @ phi.T) ** 2 @ rule.weights)
    return np.sqrt(boundary_sq) * math.sqrt(lengths.max()) / (p * np.linalg.norm(coeffs, axis=1))


def test_trace_inequality_constant_is_sharp():
    # Brute-force oracle: maximize the trace ratio over the coefficient
    # sphere on the reference element (ascent from many random starts).
    rule = quadrature_rule("edge", 2)
    basis = TriangleBasis(1)
    _, lengths = _triangle([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    S = np.zeros((3, 3))
    for face in range(3):
        phi = basis.eval(reference_face_points(face, rule.points))
        S += lengths[face] * (phi.T @ (rule.weights[:, None] * phi))
    rng = np.random.default_rng(99)
    best = 0.0
    for _ in range(50):
        c = rng.standard_normal(3)
        for _ in range(300):
            c = S @ c
            c /= np.linalg.norm(c)
        best = max(best, float(c @ S @ c))
    measured = math.sqrt(best) * math.sqrt(lengths.max())  # p = 1
    assert measured <= TRACE_CONSTANT
    assert measured >= TRACE_CONSTANT - 1e-4  # frozen value stays sharp


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("h", [0.25, 0.125, 0.0625])
def test_trace_inequality_on_scaled_elements(p, h):
    s = h / math.sqrt(2.0)
    corners = [[0.0, 0.0], [s, 0.0], [s, s]]
    rng = np.random.default_rng(1000 * p + int(1.0 / h))
    coeffs = rng.standard_normal((200, TriangleBasis(p).dim))
    assert _trace_ratios(corners, p, coeffs).max() <= TRACE_CONSTANT


@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_values_equal_the_values_of_eval_with_grad(p):
    # eval skips the derivatives but rounds the values the same way.
    pts = np.vstack([_interior_points(np.random.default_rng(p), 256), REF_VERTICES])
    basis = TriangleBasis(p)
    assert basis.eval(pts).tobytes() == basis.eval_with_grad(pts)[0].tobytes()


def test_gauss_jacobi_matches_scipy_and_integrates_moments():
    # Nodes and weights agree with scipy.special.roots_jacobi, and both
    # rules integrate (1 - x) x^j over [-1, 1] for j <= 2n - 1.
    for n in range(1, 41):
        x, w = _gauss_jacobi_10(n)
        ref_x, ref_w = roots_jacobi(n, 1.0, 0.0)
        assert np.abs(x - ref_x).max() <= 1e-15
        assert (np.abs(w - ref_w) / ref_w).max() <= 1e-12
        j = np.arange(2 * n)
        exact = np.where(j % 2 == 0, 2.0 / (j + 1), -2.0 / (j + 2))
        for nodes, weights in ((x, w), (ref_x, ref_w)):
            moments = weights @ nodes[:, None] ** j
            assert (np.abs(moments - exact) / np.abs(exact)).max() <= 1e-12
