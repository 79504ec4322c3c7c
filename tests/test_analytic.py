import math

import mpmath
import numpy as np
import pytest
from scipy import special

from helmhdg.analytic import (
    BESSEL_MAX_ARGUMENT,
    DataFunctions,
    ExactSolution,
    _bessel,
    bessel_j,
    benchmark_problem,
    data_quadrature_degree,
)
from helmhdg.polybasis import quadrature_rule, TriangleBasis
from reference import l2_project, triangle_mesh


def _series_oracle_j0(x, terms=80):
    """Independent plain power series of J0 (math.fsum for exactness)."""
    q = 0.25 * x * x
    term = 1.0
    acc = [term]
    for m in range(1, terms):
        term *= -q / (m * m)
        acc.append(term)
    return math.fsum(acc)


def test_values_at_zero():
    assert bessel_j(0, 0.0) == pytest.approx(1.0, abs=1e-15)
    assert bessel_j(1, 0.0) == pytest.approx(0.0, abs=1e-15)


def test_first_j0_root_from_series_oracle():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _series_oracle_j0(lo) * _series_oracle_j0(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert root == pytest.approx(2.404825557695773, abs=1e-12)
    assert abs(bessel_j(0, root)) <= 1e-10


def test_derivative_identity_j0_prime_equals_minus_j1():
    x = np.linspace(0.01, 50.0, 50)
    h = 1e-6
    fd = (bessel_j(0, x + h) - bessel_j(0, x - h)) / (2.0 * h)
    assert np.abs(fd + bessel_j(1, x)).max() <= 1e-9


def test_bessel_against_mpmath():
    mpmath.mp.dps = 30
    x = np.concatenate(
        [np.linspace(0.0, 16.0, 161), np.linspace(16.0, 120.0, 105), np.geomspace(120.0, 1e4, 60)]
    )
    for order in (0, 1):
        ref = np.array([float(mpmath.besselj(order, mpmath.mpf(float(v)))) for v in x])
        assert np.abs(bessel_j(order, x) - ref).max() <= 1e-12


def test_bessel_matches_scipy_on_a_dense_grid():
    # The same Cephes approximations as scipy.special.j0 and j1, with the
    # phases of the x > 5 branch built from cos x and sin x.
    x = np.concatenate(
        [np.linspace(0.0, 10.0, 100_001), np.linspace(10.0, BESSEL_MAX_ARGUMENT, 1_000_001)]
    )
    for chunk in np.array_split(x, 11):
        for order, ref in ((0, special.j0), (1, special.j1)):
            assert np.abs(bessel_j(order, chunk) - ref(chunk)).max() <= 1e-14


def test_bessel_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bessel_j(2, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(0, 2e4)


@pytest.mark.parametrize("x", [float("nan"), [1.0, float("nan")], float("inf")],
                         ids=["nan", "nan-in-array", "inf"])
@pytest.mark.parametrize("order", [0, 1])
def test_bessel_rejects_non_finite_arguments(order, x):
    # A comparison with NaN is false, so the range check must fail for it.
    with pytest.raises(ValueError, match="argument must lie in"):
        bessel_j(order, x)


def test_bessel_accepts_both_ends_of_its_range():
    assert bessel_j(0, -0.0) == 1.0
    assert np.isfinite(bessel_j(1, [0.0, BESSEL_MAX_ARGUMENT])).all()


def test_bessel_gives_each_point_the_same_bits_in_any_batch():
    # The blocked error norms split the points into batches, so every point
    # must round alike whichever batch of 2 or more points holds it.  A
    # lone x > 5 point takes another BLAS kernel and is left out.
    small = np.concatenate([[0.0, 5.0], np.linspace(0.0, 5.0, 61)[1:-1]])
    large = np.concatenate(
        [[np.nextafter(5.0, 6.0), BESSEL_MAX_ARGUMENT], np.geomspace(5.5, 9e3, 70)]
    )
    x = np.concatenate([small, large])
    want = _bessel(x, np.cos(x), np.sin(x))

    def check(start, stop):
        got = _bessel(x[start:stop], np.cos(x[start:stop]), np.sin(x[start:stop]))
        assert got.shape == (2, stop - start)
        assert got.tobytes() == want[:, start:stop].tobytes()

    check(0, small.size)
    check(small.size, x.size)
    check(3, 3)
    for size in (2, 3, 7, 64, 65):
        for start in range(x.size - size + 1):
            check(start, start + size)


@pytest.mark.parametrize("kappa", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 2e4])
def test_exact_solution_rejects_kappa_outside_the_bessel_range(kappa):
    with pytest.raises(ValueError, match="wave number must lie in"):
        ExactSolution(kappa)


def test_exact_solution_builds_at_the_largest_kappa():
    sol = ExactSolution(BESSEL_MAX_ARGUMENT)
    assert np.isfinite(sol.coef)


@pytest.mark.parametrize("kappa", [5.0, 20.0, 40.0])
def test_exact_solution_at_origin(kappa):
    sol = ExactSolution(kappa)
    expected = 1.0 / kappa - sol.coef  # J0(0) = 1
    assert sol.u(np.array([[0.0, 0.0]]))[0] == pytest.approx(expected, abs=1e-14)
    assert np.abs(sol.grad_u(np.array([[0.0, 0.0]]))).max() == 0.0


@pytest.mark.parametrize("kappa", [5.0, 20.0, 40.0])
def test_helmholtz_residual_by_finite_differences(kappa):
    sol, data = benchmark_problem(kappa)
    rng = np.random.default_rng(21)
    pts = rng.uniform(-0.45, 0.45, (50, 2))
    h = 1e-4
    lap = (
        sol.u(pts + [h, 0.0]) + sol.u(pts - [h, 0.0])
        + sol.u(pts + [0.0, h]) + sol.u(pts - [0.0, h])
        - 4.0 * sol.u(pts)
    ) / h**2
    resid = -lap - kappa**2 * sol.u(pts) - data.f_tilde(pts)
    assert np.abs(resid).max() <= 1e-4 * np.abs(data.f_tilde(pts)).max()


def test_gradient_by_finite_differences():
    sol = ExactSolution(20.0)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.4, 0.4, (30, 2))
    h = 1e-6
    fd = np.stack(
        [
            (sol.u(pts + [h, 0.0]) - sol.u(pts - [h, 0.0])) / (2 * h),
            (sol.u(pts + [0.0, h]) - sol.u(pts - [0.0, h])) / (2 * h),
        ],
        axis=1,
    )
    assert np.abs(sol.grad_u(pts) - fd).max() <= 1e-8


def test_robin_residual_on_boundary():
    kappa = 20.0
    sol, data = benchmark_problem(kappa)
    t = np.linspace(-0.5, 0.5, 25)
    for normal, pts in (
        ((1.0, 0.0), np.column_stack([np.full_like(t, 0.5), t])),
        ((-1.0, 0.0), np.column_stack([np.full_like(t, -0.5), t])),
        ((0.0, 1.0), np.column_stack([t, np.full_like(t, 0.5)])),
        ((0.0, -1.0), np.column_stack([t, np.full_like(t, -0.5)])),
    ):
        nrm = np.tile(normal, (t.size, 1))
        resid = (
            np.sum(sol.grad_u(pts) * nrm, axis=1) + 1j * kappa * sol.u(pts)
            - data.g_tilde(pts, nrm)
        )
        assert np.abs(resid).max() <= 1e-13
        assert data.g(pts, nrm) == pytest.approx(-1j * data.g_tilde(pts, nrm) / kappa)


def test_exact_solution_check_catches_wrong_robin_data(monkeypatch):
    from helmhdg.verify import _check_exact_solution

    assert _check_exact_solution().passed

    def flipped(self, points, normals):
        u, grad = self.exact.u_and_grad(points)
        return np.sum(grad * np.asarray(normals).reshape(-1, 2), axis=1) - 1j * self.kappa * u

    monkeypatch.setattr(DataFunctions, "g_tilde", flipped)
    result = _check_exact_solution()
    assert not result.passed, result.measured


def test_u_alone_equals_the_value_of_u_and_grad():
    # u gives the value of u_and_grad, bit for bit, also at the origin and
    # on the boundary.
    sol = ExactSolution(60.0)
    rng = np.random.default_rng(5)
    pts = np.vstack([[[0.0, 0.0], [0.5, -0.5]], rng.uniform(-0.5, 0.5, (500, 2))])
    assert sol.u(pts).tobytes() == sol.u_and_grad(pts)[0].tobytes()


def test_flux_definition():
    sol = ExactSolution(7.0)
    pts = np.array([[0.2, -0.1], [0.31, 0.4]])
    assert np.abs(1j * 7.0 * sol.q(pts) + sol.grad_u(pts)).max() <= 1e-15


@pytest.mark.parametrize("kappa", [5.0, 20.0])
def test_source_values(kappa):
    data = DataFunctions(kappa)
    origin = np.array([[0.0, 0.0]])
    assert data.f_tilde(origin)[0] == pytest.approx(kappa, abs=1e-13)
    assert data.f(origin)[0] == pytest.approx(-1j, abs=1e-13)
    on_zero = np.array([[math.pi / kappa, 0.0]])
    assert abs(data.f_tilde(on_zero)[0]) <= 1e-12


@pytest.mark.parametrize("kappa", [5.0, 20.0, 100.0])
def test_source_near_the_origin_matches_mpmath(kappa):
    # f_tilde = sin(kappa r)/r is one np.sinc call, which passes through
    # r = 0 with the value kappa; up to kappa r = 1 it must match a
    # 40-digit evaluation to rounding.
    radii = np.concatenate([[0.0, 1e-300, 1e-16, 1e-9], np.geomspace(1e-6, 1.0, 25) / kappa])
    angles = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, radii.size)
    points = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
    got = DataFunctions(kappa).f_tilde(points)
    assert got[0] == kappa
    with mpmath.workdps(40):
        for (x, y), value in zip(points, got):
            r = mpmath.sqrt(mpmath.mpf(x) ** 2 + mpmath.mpf(y) ** 2)
            want = kappa if r == 0 else float(mpmath.sin(kappa * r) / r)
            assert value == pytest.approx(want, rel=2e-15, abs=0.0), (x, y)


def test_data_quadrature_degree_rule():
    assert data_quadrature_degree(2, 20.0, 0.1) == 2 * 2 + 4 + 2
    assert data_quadrature_degree(1, 5.0, 0.01) == 2 + 4 + 1


@pytest.mark.parametrize("p", [1, 2, 3])
def test_projection_idempotent_on_polynomials(p):
    mesh = triangle_mesh([[0.1, 0.2], [0.6, 0.25], [0.2, 0.7]])
    basis = TriangleBasis(p)
    rng = np.random.default_rng(p)
    coeff = rng.standard_normal(basis.dim) + 1j * rng.standard_normal(basis.dim)

    def poly(pts):
        # invert the affine map to evaluate the element polynomial
        ref = (pts - mesh.vertices[0]) @ np.linalg.inv(mesh.jacobians[0]).T
        return basis.eval(ref) @ coeff / math.sqrt(mesh.dets[0])

    back = l2_project("element", poly, p, (mesh, 0))
    assert np.abs(back - coeff).max() <= 1e-12


def test_projection_residual_orthogonality():
    mesh = triangle_mesh([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])
    p = 2
    func = lambda pts: np.sin(pts[:, 0]) * np.cos(pts[:, 1])  # noqa: E731
    coeff = l2_project("element", func, p, (mesh, 0), quad_degree=20)
    rule = quadrature_rule("triangle", 20)
    basis = TriangleBasis(p)
    vals = basis.eval(rule.points)
    proj = vals @ coeff / math.sqrt(mesh.dets[0])
    resid = func(mesh.element_points([0], rule.points)[0]) - proj
    moments = math.sqrt(mesh.dets[0]) * (vals.T @ (rule.weights * resid))
    assert np.abs(moments).max() <= 1e-11


@pytest.mark.parametrize("p", [1, 2])
def test_projection_error_halving_ratio(p):
    # Global projection error on h-refined meshes of the fixed domain
    # drops by 2^(p+1) per halving.
    from helmhdg.verify import _projection_errors

    func = lambda pts: np.sin(pts[:, 0]) * np.cos(pts[:, 1])  # noqa: E731
    coarse = _projection_errors(8, p, func)[0]
    fine = _projection_errors(16, p, func)[0]
    assert coarse / fine == pytest.approx(2.0 ** (p + 1), rel=0.15)


def _projection_errors_per_element(n, p, func):
    """Reference: the projection check one element at a time."""
    from helmhdg.mesh import build_structured_mesh
    from helmhdg.polybasis import reference_face_points

    mesh = build_structured_mesh(n)
    basis = TriangleBasis(p)
    vol_rule = quadrature_rule("triangle", 2 * p + 12)
    edge_rule = quadrature_rule("edge", 2 * p + 12)
    vol_sq = 0.0
    trace_sq = 0.0
    for elem in range(mesh.n_elements):
        det = mesh.dets[elem]

        def physical(ref_pts):
            return mesh.element_points([elem], ref_pts)[0]

        coeff = l2_project("element", func, p, (mesh, elem), quad_degree=2 * p + 12)
        vals = basis.eval(vol_rule.points) @ coeff / math.sqrt(det)
        diff = func(physical(vol_rule.points)) - vals
        vol_sq += det * float(np.abs(diff) ** 2 @ vol_rule.weights)
        for face in range(3):
            ref_pts = reference_face_points(face, edge_rule.points)
            fvals = basis.eval(ref_pts) @ coeff / math.sqrt(det)
            fdiff = func(physical(ref_pts)) - fvals
            trace_sq += mesh.face_lengths[elem, face] * float(np.abs(fdiff) ** 2 @ edge_rule.weights)
    return math.sqrt(vol_sq), math.sqrt(trace_sq)


@pytest.mark.parametrize("n, p", [(8, 1), (8, 3), (24, 2)])
def test_blocked_projection_matches_per_element_loop(n, p):
    # n = 24 has 1 152 elements, so one block boundary is crossed.
    from helmhdg.verify import _projection_errors

    func = lambda pts: np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, 1])  # noqa: E731
    got = _projection_errors(n, p, func)
    want = _projection_errors_per_element(n, p, func)
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_projection_check_calls_func_per_block(monkeypatch):
    from helmhdg import hdg_local, skeleton, verify

    def forbidden(*args, **kwargs):
        raise AssertionError("per-element call in the projection check")

    monkeypatch.setattr(verify, "element_geometry", forbidden)
    monkeypatch.setattr(hdg_local, "volume_load", forbidden)
    calls = []

    def func(pts):
        calls.append(len(pts))
        return np.sin(3.0 * pts[:, 0]) * np.cos(2.0 * pts[:, 1])

    n, p = 32, 1
    verify._projection_errors(n, p, func)
    # One call per block, on 64 volume and 3 x 8 face points per element:
    # 46 elements fit in a block of 2^12 points, so the 2 048 elements take
    # 44 full blocks and one of 24.
    per_element = (quadrature_rule("triangle", 2 * p + 12).n_points
                   + 3 * quadrature_rule("edge", 2 * p + 12).n_points)
    assert (per_element, skeleton.BLOCK_POINTS) == (88, 2**12)
    assert calls == [46 * 88] * 44 + [24 * 88]


def test_edge_projection_of_constant():
    ends = np.array([[0.0, 0.0], [0.3, 0.4]])
    coeff = l2_project("edge", lambda pts: np.full(len(pts), 2.5), 2, ends)
    # constant = 2.5 means coefficient 2.5 * sqrt(L) on the first member
    assert coeff[0] == pytest.approx(2.5 * math.sqrt(0.5), abs=1e-13)
    assert np.abs(coeff[1:]).max() <= 1e-13


def test_denominator_guard_never_trips():
    # J0 and J1 share no zeros; spot-check magnitudes stay away from zero
    for kappa in np.linspace(1.0, 60.0, 97):
        sol = ExactSolution(float(kappa))
        assert np.isfinite(sol.coef)
        assert abs(sol.coef) < 5.0 / math.sqrt(kappa)
