import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import gamma

from reflected_stable.stable_core import (StableParams, StableParamsError,
                                          ball_exit_position, ball_mean_exit_time,
                                          ball_occupation_cdf, levy_constant,
                                          levy_interval_mass, sample_ball_exit_radius,
                                          sample_stable_increment)

import oracles


def test_levy_constant_cauchy():
    # Gamma(-1/2) = -2 sqrt(pi), so the d=1, alpha=1 constant is 1/pi,
    # matching the Cauchy jump density 1/(pi x^2)
    assert levy_constant(1, 1.0) == pytest.approx(1.0 / np.pi, rel=1e-14)


def test_levy_constant_vanishes_near_two():
    # Gamma(-alpha/2) has a pole at alpha=2, so the constant decays to 0
    # (the jump measure must vanish in the Brownian limit); check the pole
    # of the reflection-formula denominator directly as well
    assert oracles.gamma_abs_logpath(-1.99 / 2) > 5 * oracles.gamma_abs_logpath(-1.9 / 2)
    assert oracles.gamma_abs_logpath(-1.9 / 2) > 5 * oracles.gamma_abs_logpath(-0.5)
    assert levy_constant(1, 1.99) < levy_constant(1, 1.9) < levy_constant(1, 1.0)
    assert levy_constant(1, 1.999) < 1e-2


@pytest.mark.parametrize("d,alpha", [(1, 0.5), (1, 1.0), (2, 1.0), (2, 1.5), (3, 0.7)])
def test_levy_constant_dual_gamma_paths(d, alpha):
    assert levy_constant(d, alpha) == pytest.approx(
        oracles.levy_constant_logpath(d, alpha), rel=1e-12)


def test_levy_constant_rejects_bad_alpha():
    for bad in (0.0, 2.0, -0.3, 2.5):
        with pytest.raises(StableParamsError):
            levy_constant(1, bad)
    for bad in (0.0, 2.0, -0.3, 2.5, float("nan")):
        with pytest.raises(StableParamsError, match=r"alpha must lie in \(0, 2\)"):
            StableParams(1, bad)


@pytest.mark.parametrize("alpha,rho", [(0.5, 1.0), (1.0, 0.7), (1.5, 2.0)])
def test_levy_interval_mass_matches_quadrature(alpha, rho):
    # mass of {z > x + rho} equals (c/alpha) rho^-alpha; check against quad
    p = StableParams(1, alpha)
    closed = levy_interval_mass(p, 0.0, rho, np.inf)
    assert closed == pytest.approx(p.c_levy / alpha * rho ** (-alpha), rel=1e-13)
    numeric = quad(lambda z: p.c_levy * z ** (-1 - alpha), rho, np.inf)[0]
    assert closed == pytest.approx(numeric, rel=1e-8)
    a, b = 0.7, 2.3
    numeric = quad(lambda z: p.c_levy * (z - 0.2) ** (-1 - alpha), a, b)[0]
    assert levy_interval_mass(p, 0.2, a, b) == pytest.approx(numeric, rel=1e-9)


def test_levy_interval_mass_rejects_straddling():
    p = StableParams(1, 1.0)
    with pytest.raises(ValueError):
        levy_interval_mass(p, 0.5, 0.0, 1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_levy_interval_mass_edges(alpha):
    p = StableParams(1, alpha)
    scale = p.c_levy / alpha
    # x at the near endpoint, on either side, is an infinite positive mass,
    # with no warning (RuntimeWarnings are errors under pytest)
    assert levy_interval_mass(p, 0.3, 0.3, 1.0) == np.inf
    assert levy_interval_mass(p, 0.3, -1.0, 0.3) == np.inf
    assert levy_interval_mass(p, 0.0, -0.0, 1.0) == np.inf
    assert levy_interval_mass(p, -0.0, -1.0, 0.0) == np.inf
    # an unbounded piece has no far term
    right = levy_interval_mass(p, 0.25, 0.75, np.inf)
    assert right == pytest.approx(scale * 0.5 ** -alpha, rel=1e-15)
    assert levy_interval_mass(p, 0.25, -np.inf, -0.25) == right
    left = levy_interval_mass(p, 0.25, -np.inf, -0.75)
    assert left == levy_interval_mass(p, -0.25, 0.75, np.inf)
    # a broadcast (n, k) call is k scalar calls, bit for bit
    x = np.linspace(-0.95, 0.95, 9)
    a = np.array([-np.inf, -3.0, 1.0, 1.5])
    b = np.array([-1.0, -2.0, 1.5, np.inf])
    table = levy_interval_mass(p, x[:, None], a, b)
    assert table.shape == (9, 4)
    for i, xi in enumerate(x):
        for k in range(4):
            assert table[i, k] == levy_interval_mass(p, xi, a[k], b[k]), (i, k)


def test_cauchy_increments_ks():
    p = StableParams(1, 1.0)
    rng = np.random.default_rng(101)
    x = sample_stable_increment(p, 1.0, rng, size=10 ** 6)
    res = stats.kstest(x, "cauchy")
    assert res.statistic < 1.6276 / np.sqrt(len(x))  # 1% critical value


def test_increments_finite_from_the_least_alpha():
    # below alpha = 0.05 dt**(1/alpha) underflows while the transform's power
    # overflows, and draws are nan: the sampler refuses; at 0.05 all are finite
    rng = np.random.default_rng(7)
    with pytest.raises(ValueError, match="least alpha"):
        sample_stable_increment(StableParams(1, 0.049), 1e-3, rng, size=10)
    for dt in (1e-3, 0.5):
        x = sample_stable_increment(StableParams(1, 0.05), dt, rng, size=10 ** 6)
        assert np.isfinite(x).all()


def test_increment_median_symmetry():
    from scipy.special import gamma as _g
    p = StableParams(1, 1.5)
    rng = np.random.default_rng(7)
    x = sample_stable_increment(p, 1.0, rng, size=10 ** 5)
    med = np.median(x)
    # density at 0 of the symmetric alpha-stable law is Gamma(1 + 1/alpha)/pi
    f0 = _g(1.0 + 1.0 / 1.5) / np.pi
    se = 1.0 / (2.0 * f0 * np.sqrt(len(x)))
    assert abs(med) < 4.0 * se


@pytest.mark.parametrize("alpha", [0.7, 1.5])
def test_increment_self_similarity(alpha):
    p = StableParams(1, alpha)
    rng = np.random.default_rng(11)
    small = sample_stable_increment(p, 0.1, rng, size=10 ** 5) * 0.1 ** (-1.0 / alpha)
    unit = sample_stable_increment(p, 1.0, rng, size=10 ** 5)
    res = stats.ks_2samp(small, unit)
    assert res.pvalue > 0.01


def test_increments_characteristic_function():
    # exp(-dt |xi|^alpha) for a few frequencies, alpha without closed-form law
    p = StableParams(1, 0.5)
    rng = np.random.default_rng(23)
    x = sample_stable_increment(p, 0.7, rng, size=4 * 10 ** 5)
    for xi in (0.3, 1.0, 2.0):
        emp = np.mean(np.cos(xi * x))
        assert emp == pytest.approx(np.exp(-0.7 * xi ** 0.5), abs=4.5 / np.sqrt(len(x)))


def test_isotropic_d2_radial_law():
    # d=2, alpha=1 increments have the isotropic Cauchy law with radial CDF
    # 1 - (1 + r^2)^(-1/2)
    p = StableParams(2, 1.0)
    rng = np.random.default_rng(5)
    y = sample_stable_increment(p, 1.0, rng, size=3 * 10 ** 5)
    r = np.linalg.norm(y, axis=1)
    res = stats.kstest(r, lambda q: 1.0 - 1.0 / np.sqrt(1.0 + q ** 2))
    assert res.pvalue > 0.01
    ang = np.arctan2(y[:, 1], y[:, 0])
    res_ang = stats.kstest(ang, stats.uniform(loc=-np.pi, scale=2 * np.pi).cdf)
    assert res_ang.pvalue > 0.01


def test_ball_exit_sign_symmetry():
    p = StableParams(1, 1.3)
    rng = np.random.default_rng(3)
    z = ball_exit_position(p, 0.0, 1.0, 0.0, rng, size=10 ** 5)
    frac = np.mean(z > 0)
    assert abs(frac - 0.5) < 3.0 * 0.5 / np.sqrt(len(z))


def test_ball_exit_tail_probability():
    # P(|exit| > 2) from the center at alpha=1 is 1 - (2/pi) arctan(sqrt 3) = 1/3;
    # frozen after checking the Poisson-kernel quadrature
    assert oracles.ball_exit_tail_prob(1.0, 0.0, 2.0) == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert 1.0 - 2.0 / np.pi * np.arctan(np.sqrt(3.0)) == pytest.approx(1.0 / 3.0, rel=1e-12)
    p = StableParams(1, 1.0)
    rng = np.random.default_rng(17)
    z = ball_exit_position(p, 0.0, 1.0, 0.0, rng, size=10 ** 5)
    frac = np.mean(np.abs(z) > 2.0)
    assert abs(frac - 1.0 / 3.0) < 3.0 * np.sqrt(1.0 / 3.0 * 2.0 / 3.0 / len(z))


def test_ball_exit_never_in_ball():
    p = StableParams(1, 0.8)
    rng = np.random.default_rng(2)
    z = ball_exit_position(p, 0.5, 2.0, -0.7, rng, size=20000)
    assert np.all(np.abs(z - 0.5) > 2.0)


def test_ball_exit_radius_chi2_40_cells():
    # radial law: 1/rho^2 ~ Beta(alpha/2, 1 - alpha/2); 40 equal-mass cells
    from scipy.special import betaincinv
    p = StableParams(1, 1.2)
    rng = np.random.default_rng(29)
    rho = sample_ball_exit_radius(p, rng, size=10 ** 5)
    qs = np.linspace(0.0, 1.0, 41)[1:-1]
    edges = np.concatenate([[1.0], 1.0 / np.sqrt(betaincinv(0.6, 0.4, 1.0 - qs)),
                            [np.inf]])  # 40 equal-mass radial cells
    obs = np.histogram(rho, bins=edges)[0]
    res = stats.chisquare(obs)
    assert res.pvalue > 0.01


def test_ball_exit_offcenter_matches_poisson_quadrature():
    p = StableParams(1, 1.0)
    rng = np.random.default_rng(31)
    z = ball_exit_position(p, 0.0, 1.0, 0.5, rng, size=2 * 10 ** 5)
    p_right = quad(lambda t: oracles.ball_poisson_density(1.0, 0.5, t), 1, np.inf)[0]
    p_far = oracles.ball_exit_tail_prob(1.0, 0.5, 2.0)
    n = len(z)
    assert np.mean(z > 1) == pytest.approx(p_right, abs=4 * np.sqrt(p_right * (1 - p_right) / n))
    obs_far = np.mean(np.abs(z) > 2)
    assert obs_far == pytest.approx(p_far, abs=4 * np.sqrt(p_far * (1 - p_far) / n))


def test_ball_exit_rejects_outside_start():
    p = StableParams(1, 1.0)
    rng = np.random.default_rng(0)
    for bad in (1.0, 1.5):
        with pytest.raises(ValueError):
            ball_exit_position(p, 0.0, 1.0, bad, rng, size=1)
    # the interval or ball rejects the radius (DomainError is a ValueError)
    for radius in (0.0, -1.0):
        with pytest.raises(ValueError):
            ball_exit_position(p, 0.0, radius, 0.0, rng, size=1)
        with pytest.raises(ValueError):
            ball_exit_position(StableParams(2, 1.0), np.zeros(2), radius, np.zeros(2), rng,
                               size=1)
    with pytest.raises(ValueError):
        ball_exit_position(StableParams(2, 1.0), np.zeros(2), 1.0, [0.6, 0.8], rng, size=1)


def test_mean_exit_time_closed_values():
    # Gamma(1/2) / (2 Gamma(3/2) Gamma(1)) = 1
    p = StableParams(1, 1.0)
    assert ball_mean_exit_time(p, 1.0, 0.0) == pytest.approx(1.0, rel=1e-14)
    assert ball_mean_exit_time(p, 1.0, 0.999) < 0.05
    with pytest.raises(ValueError):
        ball_mean_exit_time(p, 1.0, 1.0)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_mean_exit_time_vs_green_quadrature(alpha):
    p = StableParams(1, alpha)
    for x in (0.0, 0.4):
        target = oracles.interval_mean_exit_time_quad(alpha, x)
        assert ball_mean_exit_time(p, 1.0, x) == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_ball_occupation_cdf_oracle(alpha):
    # the closed form is the Green function of (-1, 1) from 0 integrated; the
    # recurrence it takes for alpha > 1 cancels near alpha = 1, so it is
    # checked away from there
    for u in (0.05, 0.3, 0.7, 0.99):
        q = quad(lambda y: oracles.interval_green(alpha, 0.0, y), 0.0, u, limit=200)[0]
        assert oracles.ball_occupation_cdf(alpha, u) == pytest.approx(q, rel=1e-9)
    total = oracles.ball_occupation_cdf(alpha, 1.0) - oracles.ball_occupation_cdf(alpha, -1.0)
    assert abs(total - 1.0 / gamma(1.0 + alpha)) <= 1e-12
    assert total == pytest.approx(ball_mean_exit_time(StableParams(1, alpha), 1.0, 0.0),
                                  rel=1e-12)


@pytest.mark.parametrize("gap", [1e-14, 1e-12, 1e-10, 5e-8])
@pytest.mark.parametrize("side", [-1.0, 1.0])
def test_ball_occupation_cdf_near_alpha_one(gap, side):
    # the series' pole at alpha = 1 cancels to about 1e-16 / |1 - alpha|, so
    # within 3e-8 of it the closed form at alpha = 1 is used, and at 5e-8
    # the series is off it by its own change with alpha (0.08 |1 - alpha|)
    # and its round-off: the CDF rises and stays within 1e-8 of that form
    u = np.linspace(-1.0, 1.0, 20001)
    cdf = ball_occupation_cdf(StableParams(1, 1.0 + side * gap), u)
    assert np.all(np.diff(cdf) > 0)
    assert np.abs(cdf - ball_occupation_cdf(StableParams(1, 1.0), u)).max() <= 1e-8


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_ball_occupation_cdf_matches_green_oracle(alpha):
    # the numpy-only CDF is 1/2 + Gamma(1 + alpha) (H(u) - H(0)) of the
    # scipy oracle on a grid of [-1, 1], ends and centre included
    p = StableParams(1, alpha)
    u = np.linspace(-1.0, 1.0, 801)
    cdf = ball_occupation_cdf(p, u)
    assert np.abs(cdf - (0.5 + gamma(1.0 + alpha) * oracles.ball_occupation_cdf(alpha, u))
                  ).max() <= 1e-10
    assert ball_occupation_cdf(p, -1.0) == 0.0 and ball_occupation_cdf(p, 1.0) == 1.0
    # odd about its value 1/2 at the centre, and increasing
    assert ball_occupation_cdf(p, 0.0) == 0.5
    assert np.abs(cdf + ball_occupation_cdf(p, -u) - 1.0).max() <= 1e-15
    assert np.all(np.diff(cdf) > 0)
