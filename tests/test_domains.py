"""Defining functions, normals, and affine relations of the convex domains."""

import numpy as np
import pytest

from gaussflow import domains as dom
from gaussflow.errors import BoundaryMembershipError


def boundary_points(domain, count=256):
    """Points on the zero level set, shape (count, n); the two ends in 1D.

    The boundary is c + Q^{-1/2} e over unit vectors e, sampled at count
    equally spaced angles in 2D.
    """
    if domain.dimension == 1:
        ring = np.array([[-1.0], [1.0]])
    else:
        angles = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
        ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return domain.center + ring @ dom.spd_inv_sqrt(domain.shape).T


def rotated(center, semi_axes, angle):
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    q = rot @ np.diag(1.0 / np.asarray(semi_axes) ** 2) @ rot.T
    return dom.ConvexDomain.ellipse(center, 0.5 * (q + q.T))


def fd_jet(domain, p, step=1e-5):
    """Finite-difference gradient and Hessian of the defining function."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    n = p.size
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    h0, _, _ = dom.defining_jet(domain, p)
    for i in range(n):
        e = np.zeros(n)
        e[i] = step
        hp, _, _ = dom.defining_jet(domain, p + e)
        hm, _, _ = dom.defining_jet(domain, p - e)
        grad[i] = (hp - hm) / (2 * step)
        hess[i, i] = (hp - 2 * h0 + hm) / step**2
        for j in range(i + 1, n):
            f = np.zeros(n)
            f[j] = step
            hpp, _, _ = dom.defining_jet(domain, p + e + f)
            hpm, _, _ = dom.defining_jet(domain, p + e - f)
            hmp, _, _ = dom.defining_jet(domain, p - e + f)
            hmm, _, _ = dom.defining_jet(domain, p - e - f)
            hess[i, j] = hess[j, i] = (hpp - hpm - hmp + hmm) / (4 * step**2)
    return grad, hess


class TestDefiningJet:
    def test_interval_center(self):
        d = dom.ConvexDomain.interval(-0.5, 0.5)
        h, dh, d2h = dom.defining_jet(d, [0.0])
        assert h == pytest.approx(0.25, abs=1e-15)
        assert dh[0] == pytest.approx(0.0, abs=1e-15)
        assert d2h[0, 0] == pytest.approx(-2.0, abs=1e-15)

    def test_ball_interior_point(self):
        d = dom.ConvexDomain.ball([0.0, 0.0], 0.5)
        h, dh, d2h = dom.defining_jet(d, [0.3, 0.0])
        assert h == pytest.approx(0.16, abs=1e-15)
        assert np.allclose(dh, [-0.6, 0.0], atol=1e-15)
        assert np.allclose(d2h, -2.0 * np.eye(2), atol=1e-15)

    def test_ball_boundary_normalization(self):
        d = dom.ConvexDomain.ball([0.0, 0.0], 0.5)
        h, dh, _ = dom.defining_jet(d, [0.5, 0.0])
        assert h == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(dh) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("domain", [
        dom.ConvexDomain.interval(-0.3, 1.1),
        dom.ConvexDomain.ball([0.2, -0.1], 0.7),
        dom.ConvexDomain.ellipse([0.1, 0.0], [[4.0, 1.0], [1.0, 9.0]]),
    ])
    def test_fd_matches_analytic(self, domain):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = domain.center + rng.uniform(-0.3, 0.3, size=domain.dimension)
            _, dh, d2h = dom.defining_jet(domain, p)
            fd_g, fd_h = fd_jet(domain, p)
            scale = max(1.0, np.max(np.abs(dh)), np.max(np.abs(d2h)))
            assert np.max(np.abs(fd_g - dh)) / scale < 1e-6
            assert np.max(np.abs(fd_h - d2h)) / scale < 1e-4

    @pytest.mark.parametrize("domain", [
        dom.ConvexDomain.interval(-0.5, 0.5),
        dom.ConvexDomain.ball([0.0, 0.0], 0.5),
        dom.ConvexDomain.ellipse([0.0, 0.0], [[6.25, 0.0], [0.0, 16.0]]),
    ])
    def test_sign_convention_on_rays(self, domain):
        """h > 0 inside, h = 0 on the boundary, h < 0 outside."""
        for q in boundary_points(domain, 64):
            h_b, _, _ = dom.defining_jet(domain, q)
            assert abs(h_b) < 1e-12
            inside = domain.center + 0.5 * (q - domain.center)
            outside = domain.center + 1.5 * (q - domain.center)
            assert dom.defining_jet(domain, inside)[0] > 0
            assert dom.defining_jet(domain, outside)[0] < 0

    @pytest.mark.parametrize("domain", [
        dom.ConvexDomain.interval(0.0, 1.0),
        dom.ConvexDomain.ball([0.1, 0.2], 0.4),
        dom.ConvexDomain.ellipse([0.0, 0.0], [[4.0, 1.5], [1.5, 9.0]]),
    ])
    def test_uniform_concavity(self, domain):
        rng = np.random.default_rng(11)
        for _ in range(10):
            p = domain.center + rng.uniform(-0.2, 0.2, size=domain.dimension)
            _, _, d2h = dom.defining_jet(domain, p)
            evals = np.linalg.eigvalsh(d2h)
            assert np.all(evals <= -domain.theta + 1e-12)

    def test_gradient_points_inward(self):
        for domain in (
            dom.ConvexDomain.ball([0.0, 0.0], 0.8),
            dom.ConvexDomain.ellipse([0.0, 0.0], [[2.0, 0.3], [0.3, 5.0]]),
        ):
            for q in boundary_points(domain, 64):
                _, dh, _ = dom.defining_jet(domain, q)
                assert dh @ (q - domain.center) < 0


class TestTheta:
    def test_interval(self):
        assert dom.ConvexDomain.interval(0, 1).theta == pytest.approx(2.0)

    def test_ball(self):
        assert dom.ConvexDomain.ball([0, 0], 0.5).theta == pytest.approx(2.0)

    def test_ellipse(self):
        # Q = diag(4, 9): scale = 2 sqrt(9) = 6, theta = 2 * 4 / 6
        d = dom.ConvexDomain.ellipse([0, 0], [[4.0, 0.0], [0.0, 9.0]])
        assert d.theta == pytest.approx(8.0 / 6.0)
        assert d.scale == pytest.approx(6.0)

    def test_ellipse_max_boundary_gradient_is_one(self):
        d = dom.ConvexDomain.ellipse([0.3, -0.2], [[4.0, 1.0], [1.0, 9.0]])
        norms = [np.linalg.norm(dom.defining_jet(d, q)[1])
                 for q in boundary_points(d, 2048)]
        assert max(norms) == pytest.approx(1.0, abs=1e-5)
        assert max(norms) <= 1.0 + 1e-12


class TestInwardNormal:
    def test_unit_ball(self):
        d = dom.ConvexDomain.ball([0.0, 0.0], 1.0)
        assert np.allclose(dom.inward_normal(d, [1.0, 0.0]), [-1.0, 0.0])

    def test_interval_left_end(self):
        d = dom.ConvexDomain.interval(0.0, 1.0)
        assert dom.inward_normal(d, [0.0])[0] == pytest.approx(1.0)

    def test_ellipse_axis_point(self):
        d = dom.ConvexDomain.ellipse([0.0, 0.0], [[0.25, 0.0], [0.0, 1.0]])
        assert np.allclose(dom.inward_normal(d, [2.0, 0.0]), [-1.0, 0.0])

    def test_off_boundary_rejected(self):
        d = dom.ConvexDomain.ball([0.0, 0.0], 1.0)
        with pytest.raises(BoundaryMembershipError):
            dom.inward_normal(d, [0.9, 0.0])


class TestRadialRange:
    def test_interval_containing_zero(self):
        assert dom.radial_range(dom.ConvexDomain.interval(-0.5, 0.25)) == (0.0, 0.5)

    def test_interval_offset(self):
        # the ends are c -+ Q^{-1/2}: they carry the rounding of the
        # centre c = (a + b) / 2, one ulp at c's magnitude (0.2 comes
        # back as 0.19999999999999996)
        mn, mx = dom.radial_range(dom.ConvexDomain.interval(0.2, 0.7))
        ulp = np.nextafter(0.45, 1.0) - 0.45
        assert abs(mn - 0.2) <= ulp
        assert abs(mx - 0.7) <= ulp

    def test_ball(self):
        mn, mx = dom.radial_range(dom.ConvexDomain.ball([0.3, 0.4], 0.1))
        assert mn == pytest.approx(0.4)
        assert mx == pytest.approx(0.6)

    def test_ellipse(self):
        d = dom.ConvexDomain.ellipse([0.0, 0.0], [[6.25, 0.0], [0.0, 16.0]])
        mn, mx = dom.radial_range(d)
        assert mn == 0.0
        assert mx == pytest.approx(0.4, abs=1e-6)


class TestIntervalEnds:
    def test_interval(self):
        assert tuple(dom.ConvexDomain.interval(-0.5, 0.25).ends) == (-0.5, 0.25)

    def test_one_dimensional_ball(self):
        assert tuple(dom.ConvexDomain.ball([0.2], 0.5).ends) == (
            pytest.approx(-0.3), pytest.approx(0.7))

    def test_two_dimensional_ball_has_no_ends(self):
        with pytest.raises(ValueError, match="a 2D ball is not an interval"):
            dom.ConvexDomain.ball([0.0, 0.0], 1.0).ends


class TestLengthUnit:
    def test_unit_interval_and_unit_disk(self):
        # exact: the unit interval's controls apply bit for bit, and the
        # unit disk's tau ceiling is 10 pi
        unit = dom.ConvexDomain.interval(0, 1)
        assert unit.volume == unit.length_unit == 1.0
        disk = dom.ConvexDomain.ball([0.0, 0.0], 1.0)
        assert disk.volume == np.pi
        assert disk.length_unit == np.sqrt(np.pi)

    @pytest.mark.parametrize("domain, volume", [
        (dom.ConvexDomain.interval(-1, 2), 3.0),
        (dom.ConvexDomain.ball([0.3], 0.25), 0.5),
        (dom.ConvexDomain.ball([0.1, -0.2], 1e3), np.pi * 1e6),
        (dom.ConvexDomain.ellipse([0.0, 0.0], [[6.25, 0.0], [0.0, 16.0]]),
         np.pi * 0.4 * 0.25),
        (dom.ConvexDomain.ellipse([0.0, 0.0], [[2.0, 0.5], [0.5, 1.0]]),
         np.pi / np.sqrt(1.75)),
        (dom.ConvexDomain.ball([0.0, 0.0, 0.0], 2.0), 4.0 / 3.0 * np.pi * 8.0),
    ])
    def test_volume_of_the_quadric(self, domain, volume):
        assert domain.volume == pytest.approx(volume, rel=1e-14)
        assert domain.length_unit == pytest.approx(
            volume ** (1.0 / domain.dimension), rel=1e-14)

    @pytest.mark.parametrize("radius", [1e-150, 1e-100, 1e100, 1e150])
    def test_volume_of_a_very_small_or_large_ball(self, radius):
        # det Q = radius^-4 under- or overflows; its root's factors do not
        ball = dom.ConvexDomain.ball([0.0, 0.0], radius)
        assert ball.volume == pytest.approx(np.pi * radius**2, rel=1e-14, abs=0)
        assert ball.length_unit == pytest.approx(np.sqrt(np.pi) * radius,
                                                 rel=1e-14, abs=0)


class TestNormalRange:
    """A shape matrix's eigenvalues must be normal doubles."""

    @pytest.mark.parametrize("radius", [1e-150, 1.5, 1e150])
    def test_ball_shape_is_the_inverse_square(self, radius):
        # bit for bit I / radius**2 wherever that square is normal
        ball = dom.ConvexDomain.ball([0.0, 0.0], radius)
        assert np.array_equal(ball.shape, np.eye(2) / np.float64(radius) ** 2)

    @pytest.mark.parametrize("make", [
        lambda: dom.ConvexDomain.ball([0.0, 0.0], 1e155),
        # 1 / radius**2 = 1e-400 is below every double, not 0
        lambda: dom.ConvexDomain.ball([0.0, 0.0], 1e200),
        lambda: dom.ConvexDomain.interval(0.0, 1e155),
        lambda: dom.ConvexDomain.ellipse([0.0, 0.0], np.diag([1.0, 1e-310])),
        lambda: dom.ConvexDomain.ellipse([0.0], [[1e-309]]),
    ], ids=["ball", "ball-below-the-doubles", "interval", "ellipse", "1d-ellipse"])
    def test_subnormal_eigenvalue_is_refused_as_such(self, make):
        with pytest.raises(ValueError, match="normal double range"):
            make()


class TestAffineMap:
    def test_interval_pair(self):
        a, s = dom.spd_affine_map(dom.ConvexDomain.interval(0, 1),
                                  dom.ConvexDomain.interval(-0.5, 0.5))
        assert a[0, 0] == pytest.approx(1.0)
        assert s[0] == pytest.approx(-0.5)

    def test_ball_shrink(self):
        a, s = dom.spd_affine_map(dom.ConvexDomain.ball([0, 0], 1.0),
                                  dom.ConvexDomain.ball([0, 0], 0.5))
        assert np.allclose(a, 0.5 * np.eye(2))
        assert np.allclose(s, 0.0)

    def test_ball_to_ellipse(self):
        q = np.diag([1 / 0.4**2, 1 / 0.25**2])
        a, _ = dom.spd_affine_map(dom.ConvexDomain.ball([0, 0], 1.0),
                                  dom.ConvexDomain.ellipse([0, 0], q))
        assert np.allclose(a, np.diag([0.4, 0.25]), atol=1e-13)

    def test_general_pair_maps_boundary_to_boundary(self):
        src = dom.ConvexDomain.ellipse([0.1, -0.2], [[3.0, 0.5], [0.5, 7.0]])
        dst = dom.ConvexDomain.ellipse([-0.3, 0.0], [[9.0, -1.0], [-1.0, 4.0]])
        a, s = dom.spd_affine_map(src, dst)
        assert np.all(np.linalg.eigvalsh(a) > 0)
        assert np.allclose(a, a.T)
        for q in boundary_points(src, 64):
            img = a @ q + s
            h, _, _ = dom.defining_jet(dst, img)
            assert abs(h) < 1e-12


def close(value, ref, rel=1e-14):
    """Agreement to rel relative to the largest reference magnitude."""
    value, ref = np.asarray(value, dtype=float), np.asarray(ref, dtype=float)
    return np.max(np.abs(value - ref)) <= rel * np.max(np.abs(ref))


class TestReferenceClosedForms:
    """The quadric family against each constructor's own closed form."""

    def test_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.uniform(-1.0, 0.5)
            b = a + rng.uniform(0.1, 2.0)
            d = dom.ConvexDomain.interval(a, b)
            x = rng.uniform(a - 0.5, b + 0.5, size=40)
            h, dh = dom.defining_jet_many(d, x[None, :])
            assert close(h, (b - x) * (x - a) / (b - a))
            assert close(dh[0], (a + b - 2.0 * x) / (b - a))
            _, _, d2h = dom.defining_jet(d, x[:1])
            assert close(d2h, [[-2.0 / (b - a)]])
            assert close(d.scale, 4.0 / (b - a))
            assert close(d.theta, 2.0 / (b - a))

    def test_ball(self):
        rng = np.random.default_rng(6)
        for n in (1, 2):
            for _ in range(50):
                c = rng.uniform(-0.5, 0.5, size=n)
                rho = rng.uniform(0.05, 2.0)
                d = dom.ConvexDomain.ball(c, rho)
                pts = c + rng.uniform(-1.5 * rho, 1.5 * rho, size=(40, n))
                h, dh = dom.defining_jet_many(d, pts.T)
                diff = pts - c
                assert close(h, (rho**2 - np.sum(diff * diff, axis=1)) / (2.0 * rho))
                assert close(dh.T, -diff / rho)
                _, _, d2h = dom.defining_jet(d, pts[0])
                assert close(d2h, -np.eye(n) / rho)
                assert close(d.scale, 2.0 / rho)
                assert close(d.theta, 1.0 / rho)

    def test_ellipse_theta(self):
        # closed-form 2x2 eigenvalues: theta = 2 lambda_min / (2 sqrt(lambda_max))
        rng = np.random.default_rng(7)
        for _ in range(50):
            q11, q22 = rng.uniform(0.5, 20.0, size=2)
            q12 = rng.uniform(-0.9, 0.9) * np.sqrt(q11 * q22)
            d = dom.ConvexDomain.ellipse([0.1, -0.2], [[q11, q12], [q12, q22]])
            mid = 0.5 * (q11 + q22)
            rad = np.hypot(0.5 * (q11 - q22), q12)
            lam_min, lam_max = mid - rad, mid + rad
            assert close(d.scale, 2.0 * np.sqrt(lam_max))
            assert close(d.theta, lam_min / np.sqrt(lam_max), rel=1e-13)


class TestExactRadialRange:
    def test_never_below_a_dense_boundary_sample(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            center = rng.uniform(-0.6, 0.6, size=2)
            d = rotated(center, rng.uniform(0.05, 0.8, size=2),
                        rng.uniform(0.0, np.pi))
            norms = np.linalg.norm(boundary_points(d, 20001), axis=1)
            mn, mx = dom.radial_range(d)
            # every candidate is a boundary point: the sample's spacing
            # bounds how far outside the sample's range the exact one is
            slack = 1e-6 * norms.max()
            assert norms.max() <= mx <= norms.max() + slack
            if dom.defining_jet(d, [0.0, 0.0])[0] >= 0.0:
                assert mn == 0.0
            else:
                assert norms.min() - slack <= mn <= norms.min()

    def test_offset_ball_matches_closed_form(self):
        d = dom.ConvexDomain.ball([0.3, -0.4], 0.2)
        mn, mx = dom.radial_range(d)
        assert mn == pytest.approx(0.3, rel=1e-15)
        assert mx == pytest.approx(0.7, rel=1e-15)

    def test_three_dimensional_domain_rejected(self):
        with pytest.raises(ValueError, match="n <= 2"):
            dom.radial_range(dom.ConvexDomain.ball([0.0, 0.0, 0.0], 0.5))

