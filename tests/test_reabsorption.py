"""Angular reabsorption integrals and optical density."""

from __future__ import annotations

import math
import random

import pytest

from doppler_reabs import (
    CloudShape,
    kappa0,
    kappa_set,
    optical_density,
    reabsorption,
)
from doppler_reabs.reabsorption import (
    KAPPA0_PREFACTOR,
    SERIES_CUT,
    SPHERE_INTEGRAL_AXIAL,
    SPHERE_INTEGRAL_RADIAL,
    SPHERE_INTEGRAL_TOTAL,
    _angular_integral,
    _closed_form_integrals,
    _complete_rf_rd,
)


@pytest.fixture(scope="module")
def sphere():
    return CloudShape(sigma_y=1e-4, sigma_z=1e-4, peak_density=1e16)


def test_sphere_integrals_match_closed_forms(sphere):
    # for a sphere sigma(theta) is constant, so the quadrature must hit
    # the analytic moments of (1 + cos^2)^2 exactly
    radius = sphere.sigma_y
    radial = _angular_integral(sphere, lambda t: math.sin(t) ** 2) / radius
    axial = _angular_integral(sphere, lambda t: math.sin(t) * abs(math.cos(t))) / radius
    total = _angular_integral(sphere, math.sin) / radius
    assert radial == pytest.approx(SPHERE_INTEGRAL_RADIAL, rel=1e-9)
    assert axial == pytest.approx(SPHERE_INTEGRAL_AXIAL, rel=1e-9)
    assert total == pytest.approx(SPHERE_INTEGRAL_TOTAL, rel=1e-9)


def test_sphere_closed_form_values():
    assert SPHERE_INTEGRAL_RADIAL == pytest.approx(13 * math.pi / 16, rel=1e-15)
    assert SPHERE_INTEGRAL_RADIAL == pytest.approx(2.553, abs=5e-4)
    assert SPHERE_INTEGRAL_AXIAL == pytest.approx(2.333, abs=5e-4)
    assert SPHERE_INTEGRAL_TOTAL == pytest.approx(3.733, abs=5e-4)


def test_kappa0_prefactor(species):
    n0 = 5.6e16
    expected = n0 * species.resonant_cross_section * 9 / (128 * math.sqrt(2 * math.pi))
    assert kappa0(n0, species.resonant_cross_section) == pytest.approx(
        expected, rel=1e-12
    )
    assert KAPPA0_PREFACTOR == pytest.approx(0.0280506291, rel=1e-6)
    with pytest.raises(ValueError):
        kappa0(-1.0, species.resonant_cross_section)


def test_kappa_set_frozen(steady_kappas):
    assert steady_kappas.kappa_y == pytest.approx(0.106146297, rel=1e-6)
    assert steady_kappas.kappa_z == pytest.approx(0.173219715, rel=1e-6)
    assert steady_kappas.kappa == pytest.approx(0.259562181, rel=1e-6)


def test_kappa_set_linear_in_density(steady_shape, species, steady_kappas):
    doubled = CloudShape(
        sigma_y=steady_shape.sigma_y,
        sigma_z=steady_shape.sigma_z,
        peak_density=2 * steady_shape.peak_density,
    )
    ks2 = kappa_set(doubled, species)
    assert ks2.kappa_y == pytest.approx(2 * steady_kappas.kappa_y, rel=1e-12)
    assert ks2.kappa_z == pytest.approx(2 * steady_kappas.kappa_z, rel=1e-12)
    assert ks2.kappa == pytest.approx(2 * steady_kappas.kappa, rel=1e-12)


def test_kappa_set_sphere_closed_form(sphere, species):
    ks = kappa_set(sphere, species)
    k0 = kappa0(sphere.peak_density, species.resonant_cross_section)
    r = sphere.sigma_y
    assert ks.kappa_y == pytest.approx(
        k0 * r * (2 / math.pi) * SPHERE_INTEGRAL_RADIAL, rel=1e-14
    )
    assert ks.kappa_z == pytest.approx(k0 * r * SPHERE_INTEGRAL_AXIAL, rel=1e-14)
    assert ks.kappa == pytest.approx(k0 * r * SPHERE_INTEGRAL_TOTAL, rel=1e-14)


def test_kappa_set_matches_quadrature_oracle(species):
    # closed forms against adaptive quadrature over four decades of
    # aspect ratio, next to the sphere, and on both sides of
    # |e| = SERIES_CUT, with e = (sigma_y / sigma_z)^2 - 1, where the
    # binomial series hands over to the recurrences
    aspects = [10.0 ** (-2 + 4 * i / 200) for i in range(201)]
    aspects += [1.0 + s * d for d in (1e-12, 1e-8, 1e-4) for s in (1.0, -1.0)]
    aspects += [1.0 / math.sqrt(1.0 + s * SERIES_CUT * (1.0 + d))
                for s in (1.0, -1.0) for d in (-1e-9, 1e-9)]
    for alpha in aspects:
        shape = CloudShape(sigma_y=3e-4, sigma_z=3e-4 * alpha, peak_density=1e16)
        ks = kappa_set(shape, species)
        k0 = kappa0(shape.peak_density, species.resonant_cross_section)
        expected = (
            k0 * (2 / math.pi) * _angular_integral(shape, lambda t: math.sin(t) ** 2),
            k0 * _angular_integral(shape, lambda t: math.sin(t) * abs(math.cos(t))),
            k0 * _angular_integral(shape, math.sin),
        )
        got = (ks.kappa_y, ks.kappa_z, ks.kappa)
        assert got == pytest.approx(expected, rel=1e-10), f"alpha = {alpha!r}"


def test_complete_rf_rd_matches_scipy():
    # the arithmetic-geometric mean against scipy's Carlson integrals,
    # over the y = 1 + e the recurrences use (|e| >= SERIES_CUT); for
    # y >> 1 the sum behind R_D cancels, so the far range gets a looser
    # bound
    from scipy.special import elliprd, elliprf

    for lo, hi, rel in ((-4, 4, 2e-15), (-300, 300, 1e-13)):
        for i in range(401):
            y = 10.0 ** (lo + (hi - lo) * i / 400)
            if abs(y - 1.0) < SERIES_CUT:
                continue
            r_f, r_d = _complete_rf_rd(y)
            assert r_f == pytest.approx(elliprf(0.0, y, 1.0), rel=rel, abs=0), f"y = {y!r}"
            assert r_d == pytest.approx(elliprd(0.0, y, 1.0), rel=rel, abs=0), f"y = {y!r}"


class _CountingMath:
    """The math module, counting its sqrt calls."""

    def __init__(self):
        self.sqrt_calls = 0

    def sqrt(self, x):
        self.sqrt_calls += 1
        return math.sqrt(x)

    def __getattr__(self, name):
        return getattr(math, name)


def test_complete_rf_rd_takes_at_most_12_iterations(monkeypatch):
    # the docstring's bound: at most 12 AGM iterations for y from 5e-324
    # to 1.7e308; each iteration takes one sqrt, and the start one more
    counting = _CountingMath()
    monkeypatch.setattr(reabsorption, "math", counting)
    rng = random.Random(2002)
    lo, hi = 5e-324, 1.7e308
    ys = [lo, hi] + [min(max(math.exp(rng.uniform(math.log(lo), math.log(hi))), lo), hi)
                     for _ in range(20000)]
    iterations = []
    for y in ys:
        counting.sqrt_calls = 0
        _complete_rf_rd(y)
        iterations.append(counting.sqrt_calls - 1)
    assert max(iterations) == 12
    assert iterations[:2] == [12, 12]  # both ends of the range take the most


def test_kappa_set_finite_at_extreme_aspect_ratios(species):
    # alpha = sigma_z / sigma_y from 1e-150 to 1e150 in decades, so
    # (sigma_y / sigma_z)^2 spans 1e300 to 1e-300
    for k in range(-150, 151):
        shape = CloudShape(sigma_y=1e-4, sigma_z=1e-4 * 10.0**k, peak_density=1e16)
        ks = kappa_set(shape, species)
        for value in (ks.kappa_y, ks.kappa_z, ks.kappa):
            assert math.isfinite(value) and value > 0, f"alpha = 1e{k}"


def test_long_cloud_limits():
    # as alpha = sigma_z / sigma_y grows without bound, each integral over
    # 2 sigma_y tends to its line-cloud limit: radial int_0^1 (1 + u^2)^2 du
    # = 28/15, axial 43/15 and total 19 pi / 16
    for alpha in (1e20, 1e50, 1e100, 1e150):
        radial, axial, total = (v / 2e-4 for v in _closed_form_integrals(1e-4, 1e-4 * alpha))
        assert radial == pytest.approx(28 / 15, rel=1e-13, abs=0), f"alpha = {alpha:g}"
        assert axial == pytest.approx(43 / 15, rel=1e-15, abs=0), f"alpha = {alpha:g}"
        assert total == pytest.approx(19 * math.pi / 16, rel=1e-15, abs=0), f"alpha = {alpha:g}"


def test_kappa_set_rejects_unrepresentable_aspect(species):
    # (sigma_y / sigma_z)^2 underflows to 0 or overflows to inf
    for sigma_y, sigma_z in ((1e-160, 1e160), (1e160, 1e-160)):
        with pytest.raises(ValueError, match="aspect ratio"):
            kappa_set(CloudShape(sigma_y=sigma_y, sigma_z=sigma_z, peak_density=1e16),
                      species)


def test_kappa_elongation_shifts_weight(species):
    # stretching the cloud along the cooling axis moves reabsorbed
    # momentum from the axial to the radial projection
    round_cloud = CloudShape(sigma_y=3e-4, sigma_z=3e-4, peak_density=1e16)
    long_cloud = CloudShape(sigma_y=3e-4, sigma_z=3e-3, peak_density=1e16)
    ks_round = kappa_set(round_cloud, species)
    ks_long = kappa_set(long_cloud, species)
    assert ks_long.kappa_y > ks_round.kappa_y
    assert long_cloud.sigma_z / long_cloud.sigma_y == pytest.approx(10.0)


def test_optical_density_frozen(steady_shape, species):
    assert optical_density(steady_shape, species, "y") == pytest.approx(
        4.97627525, rel=1e-6
    )
    assert optical_density(steady_shape, species, "z") == pytest.approx(
        8.49607969, rel=1e-6
    )


def test_optical_density_axis_ratio(steady_shape, species):
    od_y = optical_density(steady_shape, species, "y")
    od_z = optical_density(steady_shape, species, "z")
    assert od_z / od_y == pytest.approx(
        steady_shape.sigma_z / steady_shape.sigma_y, rel=1e-12
    )
    with pytest.raises(ValueError):
        optical_density(steady_shape, species, "x")


def test_cloud_shape_validation():
    with pytest.raises(ValueError):
        CloudShape(sigma_y=0.0, sigma_z=1e-4, peak_density=1e16)
    with pytest.raises(ValueError):
        CloudShape(sigma_y=1e-4, sigma_z=1e-4, peak_density=-1.0)
    for values in ((1e-3, 1e-3, math.inf), (math.inf, 1e-3, 1.0), (1e-3, math.inf, 1.0),
                   (1e-3, math.nan, 1.0)):
        with pytest.raises(ValueError, match="must be finite"):
            CloudShape(*values)
