import dataclasses
import itertools
import math
import re
import sys
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq
from scipy.optimize import minimize_scalar

from complexitylab import holography
from complexitylab.holography import (
    BlackHoleSpec,
    _turning_factor,
    blackening,
    critical_energy,
    critical_surface,
    cv_rate,
    interior_volume,
    lloyd_bound,
    rindler_rate,
    volume_curve,
    wdw_action_rate,
)

SPEC_GRID = [
    BlackHoleSpec(d=d, mu=mu) for d, mu in itertools.product((4, 5, 6), (0.5, 1.0, 10.0, 100.0))
]


def test_blackening_values():
    spec = BlackHoleSpec(d=4, mu=1.0)
    assert blackening(spec, 1.0) == pytest.approx(1.0)
    assert blackening(spec, spec.r_h) == pytest.approx(0.0, abs=1e-14)
    r = 1e6
    assert blackening(spec, r) == pytest.approx(r**2, rel=1e-5)
    with pytest.raises(ValueError):
        blackening(spec, 0.0)


def test_horizon_matches_root_oracle():
    # oracle: the real root of r^3 + r - mu = 0 for d = 4, l = 1
    spec = BlackHoleSpec(d=4, mu=1.0)
    roots = np.roots([1.0, 0.0, 1.0, -1.0])
    real = float(roots[np.isreal(roots)].real[0])
    assert spec.r_h == pytest.approx(real, rel=1e-12)
    assert spec.r_h == pytest.approx(0.6823278038280193, rel=1e-12)


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_horizon_identity_chain(spec):
    # f(r_h) = 0 is equivalent to mu = r_h^(d-3) (1 + r_h^2 / l^2)
    implied = spec.r_h ** (spec.d - 3) * (1 + spec.r_h**2 / spec.l_ads**2)
    assert implied == pytest.approx(spec.mu, rel=1e-13)


def test_hawking_temperature_value():
    spec = BlackHoleSpec(d=4, mu=1.0)
    expected = (spec.mu / spec.r_h**2 + 2 * spec.r_h) / (4 * math.pi)
    assert spec.temperature == pytest.approx(expected, rel=1e-12)
    assert spec.temperature == pytest.approx(0.2795, abs=5e-5)


def test_bekenstein_entropy_d4():
    spec = BlackHoleSpec(d=4, mu=2.0, G=0.5)
    assert spec.omega == pytest.approx(4 * math.pi)
    assert spec.entropy == pytest.approx(math.pi * spec.r_h**2 / spec.G)


def test_mass_mu_round_trip():
    a = BlackHoleSpec(d=5, mu=3.0)
    b = BlackHoleSpec(d=5, mass=a.mass)
    assert b.mu == pytest.approx(3.0, rel=1e-15)
    with pytest.raises(ValueError):
        BlackHoleSpec(d=4)
    with pytest.raises(ValueError):
        BlackHoleSpec(d=4, mu=1.0, mass=1.0)
    with pytest.raises(ValueError):
        BlackHoleSpec(d=3, mu=1.0)
    with pytest.raises(ValueError):
        BlackHoleSpec(d=4, mu=-1.0)


@pytest.mark.parametrize("d", [4.5, 5.0, "5", True])
def test_spec_rejects_non_integer_dimension(d):
    with pytest.raises(ValueError, match="integer"):
        BlackHoleSpec(d=d, mu=1.0)


def test_critical_surface_stationarity_and_oracle():
    spec = BlackHoleSpec(d=4, mu=1.0)
    r_m, v_d = critical_surface(spec)
    # stationarity: 3 mu - 4 r - 6 r^3 / l^2 = 0, solved independently
    roots = np.roots([-6.0, 0.0, -4.0, 3.0])
    real = float(roots[np.isreal(roots)].real[0])
    assert r_m == pytest.approx(real, rel=1e-12)
    assert r_m == pytest.approx(0.5285333249149226, abs=1e-12)
    assert 0 < r_m < spec.r_h
    # golden-section style oracle on the volume-rate integrand
    res = minimize_scalar(
        lambda r: -(r**2) * math.sqrt(abs(blackening(spec, r))),
        bounds=(1e-9, spec.r_h),
        method="bounded",
        options={"xatol": 1e-12},
    )
    assert r_m == pytest.approx(res.x, abs=1e-8)
    assert v_d == pytest.approx(spec.omega * res.x**2 * math.sqrt(abs(blackening(spec, res.x))), rel=1e-8)


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_critical_surface_inside_horizon(spec):
    r_m, v_d = critical_surface(spec)
    assert 0 < r_m < spec.r_h
    assert v_d > 0
    # stationarity residual of the numeric maximizer
    d = spec.d
    resid = (d - 1) * spec.mu - (2 * d - 4) * r_m ** (d - 3) - (2 * d - 2) * r_m ** (d - 1) / spec.l_ads**2
    assert abs(resid) < 1e-9 * (d - 1) * spec.mu


def test_high_temperature_critical_surface():
    spec = BlackHoleSpec(d=4, mu=1e4)
    assert critical_energy(spec) == pytest.approx(spec.mu / 2, rel=0.01)
    _, v_d = critical_surface(spec)
    assert v_d == pytest.approx(8 * math.pi * spec.G * spec.l_ads * spec.mass / 2, rel=0.01)


def test_interior_volume_degenerate_at_zero_energy():
    spec = BlackHoleSpec(d=4, mu=100.0)
    p = interior_volume(spec, 0.0)
    assert p.r_turn == spec.r_h
    assert p.interior_volume_per_sphere == 0.0
    assert p.boundary_time_sum == 0.0


def test_interior_volume_rejects_supercritical():
    spec = BlackHoleSpec(d=4, mu=100.0)
    e_c = critical_energy(spec)
    with pytest.raises(ValueError):
        interior_volume(spec, e_c)
    with pytest.raises(ValueError):
        interior_volume(spec, -0.1)


@pytest.mark.parametrize("ratio", [1e-300, 1e-9])
def test_interior_volume_rejects_a_turning_point_on_the_horizon(ratio):
    # r_h - r_turn rounds to 0: the slice would have volume 0 and a negative anchor time
    spec = BlackHoleSpec(d=4, mu=100.0)
    E = ratio * critical_energy(spec)
    with pytest.raises(ValueError, match=rf"^E = {E:.6g} is too small: its turning point rounds onto the horizon"):
        interior_volume(spec, E)


@pytest.mark.parametrize("d, mu", [(4, 100.0), (5, 10.0), (6, 1.0)])
def test_interior_volume_rejects_a_turning_point_within_the_pole_band(d, mu):
    # from about E = 10^-2.4 E_c the turning point lies within 1e-6 r_h of the
    # horizon; unchecked, E = 10^-5.5 E_c gave anchor times 1e8 times too large
    spec = BlackHoleSpec(d=d, mu=mu)
    for k in (2.5, 4.8, 5.5, 7.0):
        with pytest.raises(ValueError, match=r"is too small: its turning point lies within 1e-06 r_h of the horizon"):
            interior_volume(spec, 10**-k * critical_energy(spec))


def test_early_slice_against_mpmath():
    # E = 1e-2 E_c: r_h - r_turn = 8.4e-6 r_h, just outside the rejected band;
    # the anchor-time integral and the pole's closed form cancel to 2.4e-7
    spec = BlackHoleSpec(d=4, mu=100.0)
    E = 1e-2 * critical_energy(spec)
    volume, t_sum = _mpmath_slice(4, 100.0, E)
    p = interior_volume(spec, E)
    assert p.interior_volume_per_sphere == pytest.approx(volume, rel=1e-10)
    assert p.boundary_time_sum == pytest.approx(t_sum, rel=1e-6)


def test_volume_curve_is_its_slices_at_python_float_energies():
    spec = BlackHoleSpec(d=4, mu=100.0)
    points = volume_curve(spec, eta_max=1e-1, eta_min=1e-5, points=13)
    assert all(type(p.E) is float for p in points)
    e_c = critical_energy(spec)
    assert points == [interior_volume(spec, e_c * (1.0 - eta)) for eta in np.geomspace(1e-1, 1e-5, 13).tolist()]


@pytest.mark.parametrize("eta_min, eta_max", [(0.2, 0.1), (1e-3, 1e-3), (0.0, 0.1), (1e-5, 1.5)])
def test_volume_curve_rejects_a_bad_eta_range(eta_min, eta_max):
    with pytest.raises(ValueError, match="eta_min < eta_max"):
        volume_curve(BlackHoleSpec(d=4, mu=100.0), eta_max=eta_max, eta_min=eta_min, points=16)


def test_interior_volume_monotone_and_divergent():
    spec = BlackHoleSpec(d=4, mu=100.0)
    points = volume_curve(spec, eta_max=1e-1, eta_min=1e-5, points=13)
    vols = np.array([p.interior_volume_per_sphere for p in points])
    times = np.array([p.boundary_time_sum for p in points])
    r_m, _ = critical_surface(spec)
    assert np.all(np.diff(vols) > 0)
    assert np.all(np.diff(times) > 0)
    for p in points:
        assert r_m < p.r_turn < spec.r_h
        assert p.boundary_time_sum > 0
    # V - a ln(E_c - E) bounded on a geometric grid: constant increments
    incs = np.diff(vols)[-4:]
    assert np.max(np.abs(incs - incs.mean())) < 0.10 * incs.mean()


def test_interior_volume_against_weighted_quadrature_oracle():
    # oracle: the same integral with QUADPACK's algebraic endpoint weight
    # (r - r_turn)^(-1/2) instead of the u-substitution
    spec = BlackHoleSpec(d=4, mu=100.0)
    e_c = critical_energy(spec)
    for eta in (3e-2, 1e-3):
        E = e_c * (1 - eta)
        p = interior_volume(spec, E)
        phi = lambda r: E * E + r**4 * blackening(spec, r)
        rt = p.r_turn
        # d phi / dr at the turning point, for the endpoint limit
        dphi = 4 * rt**3 * blackening(spec, rt) + rt**4 * (spec.mu / rt**2 + 2 * rt)

        def smooth(r):
            diff = phi(r) - phi(rt)
            if r <= rt or diff <= 0:
                return 2.0 * rt**4 / math.sqrt(dphi)
            return 2.0 * r**4 * math.sqrt((r - rt) / diff)

        oracle, _ = quad(
            smooth, p.r_turn, spec.r_h, weight="alg", wvar=(-0.5, 0.0), epsabs=1e-11, epsrel=1e-11
        )
        assert p.interior_volume_per_sphere == pytest.approx(oracle, rel=1e-7)


def test_boundary_time_against_cauchy_principal_value_oracle():
    # oracle: QUADPACK's native Cauchy principal value across the horizon
    # pole, checked against the pole-subtraction window piece by rebuilding
    # the full anchor time from it
    spec = BlackHoleSpec(d=4, mu=100.0)
    e_c = critical_energy(spec)
    E = e_c * (1 - 1e-2)
    p = interior_volume(spec, E)
    r_h, r_turn = spec.r_h, p.r_turn
    r_cut = 1e3 * max(r_h, spec.l_ads)
    phi_t = E * E + r_turn**4 * blackening(spec, r_turn)

    fp_h = spec.mu / r_h**2 + 2 * r_h  # f'(r_h) at d = 4, l = 1

    def residue_free(r):
        # g(r) * (r - r_h): smooth through the horizon
        if abs(r - r_h) < 1e-12 * r_h:
            return 1.0 / fp_h
        rad = E * E + r**4 * blackening(spec, r) - phi_t
        return E * (r - r_h) / (blackening(spec, r) * math.sqrt(rad))

    delta = 0.5 * min(r_h - r_turn, r_cut - r_h)
    window, _ = quad(
        residue_free, r_h - delta, r_h + delta, weight="cauchy", wvar=r_h, epsabs=1e-11, epsrel=1e-11
    )

    def outside(r):
        rad = E * E + r**4 * blackening(spec, r) - phi_t
        return E / (blackening(spec, r) * math.sqrt(rad))

    def near_turn(u):
        r = r_turn + u * u
        rad = E * E + r**4 * blackening(spec, r) - phi_t
        return 2 * u * E / (blackening(spec, r) * math.sqrt(rad))

    t1, _ = quad(near_turn, 0.0, math.sqrt(r_h - delta - r_turn), epsabs=1e-11, epsrel=1e-11)
    t3, _ = quad(outside, r_h + delta, r_cut, epsabs=1e-11, epsrel=1e-11, limit=200)
    oracle_sum = -2.0 * (t1 + window + t3)
    assert p.boundary_time_sum == pytest.approx(oracle_sum, rel=1e-7)


@pytest.mark.parametrize("d, mu, l_ads", [(4, 100.0, 1.0), (6, 1.0, 1.0), (7, 0.3, 2.5)])
def test_turning_factor_is_the_shifted_polynomial(d, mu, l_ads):
    # oracle: numpy's polynomial composition P(r0 + x), P(r) = r^(2d-4) f(r)
    spec = BlackHoleSpec(d=d, mu=mu, l_ads=l_ads)
    P = np.polynomial.Polynomial.basis(2 * d - 4) - mu * np.polynomial.Polynomial.basis(d - 1)
    P = P + np.polynomial.Polynomial.basis(2 * d - 2) / l_ads**2
    r0 = 0.8 * spec.r_h
    shifted = P(np.polynomial.Polynomial([r0, 1.0])).coef
    g = _turning_factor(spec, r0)
    assert len(g) == 2 * d - 2
    scale = np.max(np.abs(shifted))
    assert np.allclose(g[::-1], shifted[1:], rtol=1e-12, atol=1e-13 * scale)
    assert shifted[0] == pytest.approx(r0 ** (2 * d - 4) * blackening(spec, r0), rel=1e-12)


def test_root_finds_go_through_the_module_brentq(monkeypatch):
    # perfbench counts root finds by patching holography.brentq; a local import would hide them
    E = 0.5 * critical_energy(BlackHoleSpec(d=4, mu=100.0))
    reference = interior_volume(BlackHoleSpec(d=4, mu=100.0), E)
    calls, real_brentq = [], holography.brentq

    def counted(*args, **kwargs):
        calls.append(args)
        return real_brentq(*args, **kwargs)

    monkeypatch.setattr(holography, "brentq", counted)
    assert interior_volume(BlackHoleSpec(d=4, mu=100.0), E) == reference
    assert len(calls) == 3  # the horizon, the critical radius and the turning point


def _benchmark_slices():
    """(spec, E) on the benchmark's grid, 34 slices from eta = 1e-1 down to 1e-7
    for each of three specs.  The specs are fresh: their first slice finds the
    horizon and the critical radius."""
    slices = []
    for d, mu in ((4, 100.0), (5, 10.0), (6, 1.0)):
        e_c = critical_energy(BlackHoleSpec(d=d, mu=mu))
        spec = BlackHoleSpec(d=d, mu=mu)
        slices += [(spec, e_c * (1 - eta)) for eta in np.geomspace(1e-1, 1e-7, 34)]
    return slices


def test_benchmark_grid_stays_within_its_work_budget(monkeypatch):
    # 102 slices took 76,608 integrand evaluations and 2 root finds a slice
    # before the outer anchor time moved to v = ln(r - r_h) and r_m was cached,
    # and 31,374 evaluations in 4 quadratures a slice before both integrals
    # moved to the stretched coordinate
    evals, quads, root_finds, real_brentq = [0], [], [], holography.brentq

    def counted_quad(fn, *args, **kwargs):
        def counted(*x):
            evals[0] += 1
            return fn(*x)

        quads[-1] += 1
        return quad(counted, *args, **kwargs)

    def counted_brentq(*args, **kwargs):
        root_finds[-1] += 1
        return real_brentq(*args, **kwargs)

    slices = _benchmark_slices()
    monkeypatch.setattr(holography, "quad", counted_quad)
    monkeypatch.setattr(holography, "brentq", counted_brentq)
    for spec, E in slices:
        root_finds.append(0)
        quads.append(0)
        interior_volume(spec, E)
    assert evals[0] <= 17_000
    assert quads == [2] * 102  # the volume and the anchor time
    for first in range(0, 102, 34):
        assert root_finds[first] == 3  # the horizon, the critical radius and the turning point
        assert root_finds[first + 1 : first + 34] == [1] * 33


def _reference_breaks(points, a, b):
    """QAGPE's breakpoint array as scipy's quad builds it: np.unique of the
    points, those strictly inside (a, b), then two zero slots."""
    inner = np.unique(points)
    inner = inner[(a < inner) & (inner < b)]
    return np.concatenate((inner, (0.0, 0.0)))


def _reference_slice(spec, E, evals):
    """interior_volume's slice with the integrands it had before their
    constants were bound once per slice: f a closure of its own, every
    product formed per call, QUADPACK asked for its info dict and given
    _reference_breaks.  Appends the evaluations of the turning-point root
    find and of each quadrature to evals."""
    quadpack = holography._scipy_extension(holography._QUADPACK)
    tol = holography.QUAD_TOL

    def integrate(fn, a, b, points=None):
        fn = _counted(fn, evals)
        if points is None:
            value, abserr, _, ier = quadpack._qagse(fn, a, b, (), 1, tol, tol, 500)
        else:
            value, abserr, _, ier = quadpack._qagpe(fn, a, b, _reference_breaks(points, a, b), (), 1, tol, tol, 500)
        assert ier == 0 and abserr <= max(tol, tol * abs(value))
        return value

    r_h = spec.r_h
    two_dm2, dm3, mu, l_ads = 2 * (spec.d - 2), spec.d - 3, spec.mu, spec.l_ads

    def f(r):
        return 1.0 - mu / r**dm3 + (r / l_ads) ** 2

    radicand = _counted(lambda r: E * E + r**two_dm2 * f(r), evals)
    r_turn = scipy_brentq(radicand, spec.r_m, r_h, xtol=holography._BRENTQ_XTOL, rtol=holography._BRENTQ_RTOL)
    x_h = r_h - r_turn
    coeffs = _turning_factor(spec, r_turn)

    def g(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    g0, g1 = coeffs[-1], coeffs[-2]
    a2 = g0 / g1 if g1 * x_h > g0 else x_h
    a = math.sqrt(a2)

    def vol_integrand(w):
        s = math.sinh(w)
        x = a2 * s * s
        return 4.0 * a * math.cosh(w) * (r_turn + x) ** two_dm2 / math.sqrt(g(x))

    w_h = math.asinh(math.sqrt(x_h / a2))
    volume = integrate(vol_integrand, 0.0, w_h)
    fp_h = holography.blackening_derivative(spec, r_h)
    fpp_h = holography._blackening_second(spec, r_h)
    pole_limit = -(fpp_h / (2 * fp_h**2) + r_h**two_dm2 / (2 * E * E))

    def time_integrand(w):
        s, c = math.sinh(w), math.cosh(w)
        x = a2 * s * s
        r = r_turn + x
        if abs(r - r_h) < holography._POLE_BAND * r_h:
            return pole_limit * 2.0 * a2 * s * c
        return 2.0 * a * c * (E / (f(r) * math.sqrt(g(x))) - a * s / (fp_h * (r - r_h)))

    r_cut = holography.RCUT_FACTOR * max(r_h, l_ads)
    w_cut = math.asinh(math.sqrt((r_cut - r_turn) / a2))
    t_r = -(integrate(time_integrand, 0.0, w_cut, points=[w_h]) + math.log((r_cut - r_h) / x_h) / fp_h)
    return holography.VolumeCurvePoint(E, r_turn, volume, 2.0 * t_r)


def _counted(fn, evals):
    """fn, counting its evaluations in a new last entry of evals."""
    evals.append(0)

    def fn_counted(x):
        evals[-1] += 1
        return fn(x)

    return fn_counted


def _bits(point):
    return tuple(float(v).hex() for v in dataclasses.astuple(point))


@pytest.mark.parametrize("grid", ["benchmark", "wormhole default"])
def test_interior_volume_is_the_reference_slice_bit_for_bit(grid, monkeypatch):
    # the same points after the same evaluations as the slice before its
    # integrand constants were bound once per slice
    if grid == "benchmark":
        slices = _benchmark_slices()
    else:  # the wormhole command's default grid: d = 4, mu = 100, 16 slices from eta = 1e-1 to 1e-5
        spec = BlackHoleSpec(d=4, mu=100.0)
        slices = [(spec, spec.e_c * (1.0 - eta)) for eta in np.geomspace(1e-1, 1e-5, 16).tolist()]
    for spec, _ in slices:
        spec.e_c  # the horizon and critical radius: the slice's only root find is then its turning point
    real_quad, real_brentq, evals = holography.quad, holography.brentq, []
    monkeypatch.setattr(holography, "quad", lambda fn, *args, **kwargs: real_quad(_counted(fn, evals), *args, **kwargs))
    monkeypatch.setattr(holography, "brentq", lambda fn, *args: real_brentq(_counted(fn, evals), *args))
    for spec, E in slices:
        reference_evals = []
        reference = _reference_slice(spec, E, reference_evals)
        evals.clear()
        assert _bits(interior_volume(spec, E)) == _bits(reference)
        assert evals == reference_evals and len(evals) == 3  # the turning point, the volume, the anchor time


@pytest.mark.parametrize("eta", [1e-1, 1e-7])
@pytest.mark.parametrize("d, mu", [(4, 100.0), (5, 10.0), (6, 1.0)])
def test_anchor_time_integrand_in_the_pole_band_is_its_limit(d, mu, eta):
    # no quadrature node of a tested slice falls within _POLE_BAND r_h of the
    # horizon, so the value taken there is checked here: at w_h, where r = r_h,
    # it is the mean of the integrand 1e-5 r_h to either side (they agree to 1e-7)
    spec = BlackHoleSpec(d=d, mu=mu)
    E = critical_energy(spec) * (1 - eta)
    p = interior_volume(spec, E)
    _, (fn, _, _, [w_h]) = _slice_integrals(spec, E)
    s, c = math.sinh(w_h), math.cosh(w_h)
    dw = 1e-5 * spec.r_h / (2 * (spec.r_h - p.r_turn) * c / s)  # dr/dw = 2 a^2 s c, a^2 s^2 = r_h - r_turn
    assert 0.5 * (fn(w_h - dw) + fn(w_h + dw)) == pytest.approx(fn(w_h), rel=1e-6)


@pytest.mark.parametrize(
    "points",
    [
        [0.7, 0.2, 0.5],  # unsorted
        [0.5, 0.2, 0.5, 0.2, 0.2],  # repeated
        [0.0, 1.0, 0.5, 1.0, 0.0],  # on the ends
        [-1.0, 2.5, 0.5, -0.0, 1.0 + 1e-16],  # outside, and the ends by another name
        [-3.0, 4.0],  # none inside
        np.array([0.9, 0.1, 0.9]),
        [1, 0, 0.25],  # ints
    ],
)
def test_quad_gives_qagpe_the_breakpoints_scipys_quad_builds(points, monkeypatch):
    real_quadpack, given = holography._scipy_extension(holography._QUADPACK), []

    def qagpe(fn, a, b, breaks, *args):
        given.append(breaks)
        return real_quadpack._qagpe(fn, a, b, breaks, *args)

    monkeypatch.setattr(holography, "_scipy_extension", lambda name: types.SimpleNamespace(_qagpe=qagpe))
    value, abserr = holography.quad(math.exp, 0.0, 1.0, points=points)
    reference = _reference_breaks(points, 0.0, 1.0)
    assert given[0].dtype == reference.dtype == np.float64
    assert given[0].tobytes() == reference.tobytes()
    assert (value, abserr) == quad(math.exp, 0.0, 1.0, points=points)


def _slice_integrals(spec, E):
    """(fn, a, b, points) of each quadrature of the slice at E, as holography.quad receives them."""
    real_quad, integrals = holography.quad, []

    def recorded(fn, a, b, points=None, **kwargs):
        integrals.append((fn, a, b, points))
        return real_quad(fn, a, b, points=points, **kwargs)

    holography.quad = recorded
    try:
        interior_volume(spec, E)
    finally:
        holography.quad = real_quad
    return integrals


def test_quad_matches_scipys_quad_bit_for_bit():
    # the two quadratures of every 11th benchmark slice, through holography.quad
    # and the public scipy.integrate.quad, with the slice's breakpoints, with
    # them doubled and joined by the ends and points outside [a, b], and with
    # a breakpoint given to the volume integral
    compared = 0
    for spec, E in _benchmark_slices()[::11]:
        for fn, a, b, points in _slice_integrals(spec, E):
            extra = [*(points or []), *(points or []), a, b, a - 1.0, b + 2.0]
            for pts in (points, extra, [0.5 * (a + b), 0.5 * (a + b)]):
                kwargs = dict(points=pts, epsabs=1e-10, epsrel=1e-10, limit=500, full_output=1)
                ours, theirs = holography.quad(fn, a, b, **kwargs), quad(fn, a, b, **kwargs)
                assert len(ours) == len(theirs) == 3
                assert (ours[0].hex(), ours[1].hex()) == (theirs[0].hex(), theirs[1].hex())
                assert ours[2]["neval"] == theirs[2]["neval"] and ours[2]["last"] == theirs[2]["last"]
                compared += 1
    assert compared == 10 * 2 * 3


@pytest.mark.parametrize("ier", [1, 2, 3, 4, 5, 7])
def test_quad_appends_scipys_message_for_each_error_code(ier, monkeypatch):
    # both wrappers around a QUADPACK that reports ier: scipy's quad returns
    # its message for that code, which holography.quad must append as well
    from scipy.integrate import _quadpack_py

    reporting = types.SimpleNamespace(_qagse=lambda *args: (0.5, 1.0, {}, ier), _qagpe=lambda *args: (0.5, 1.0, {}, ier))
    monkeypatch.setattr(_quadpack_py, "_quadpack", reporting)
    monkeypatch.setattr(holography, "_scipy_extension", lambda name: reporting)
    for points in (None, [0.5]):
        kwargs = dict(points=points, epsabs=1e-10, epsrel=1e-10, limit=7, full_output=1)
        *ours, message = holography.quad(math.sin, 0.0, 1.0, **kwargs)
        *theirs, scipy_message = quad(math.sin, 0.0, 1.0, **kwargs)
        assert ours == theirs == [0.5, 1.0, {}]
        assert message == " ".join(scipy_message.split())


def _no_scipy_extension_file(monkeypatch):
    """Unload both scipy extensions and hide every extension file, so that loading either fails."""
    import importlib.machinery

    for name in holography._SCIPY_EXTENSIONS:
        monkeypatch.delitem(sys.modules, name, raising=False)
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".no-such-suffix"])


def test_a_missing_quadpack_extension_raises_import_error_naming_scipys_version(monkeypatch):
    import scipy

    _no_scipy_extension_file(monkeypatch)
    message = rf"^scipy {re.escape(scipy.__version__)} has no compiled scipy\.integrate\._quadpack with _qagse and _qagpe$"
    with pytest.raises(ImportError, match=message):
        holography.quad(math.sin, 0.0, 1.0)


def test_a_missing_brent_extension_raises_import_error_naming_scipys_version(monkeypatch):
    import scipy

    _no_scipy_extension_file(monkeypatch)
    message = rf"^scipy {re.escape(scipy.__version__)} has no compiled scipy\.optimize\._zeros with _brentq$"
    with pytest.raises(ImportError, match=message):
        holography.brentq(lambda x: x - 0.5, 0.0, 1.0)


@pytest.mark.parametrize("tol", [1e-10, 1e-300])
def test_integrate_raises_scipys_reason_for_a_quadpack_failure(tol, monkeypatch):
    # on the integrands of a benchmark slice, too few subintervals (the fewest
    # QUADPACK takes) or a tolerance below roundoff: _integrate names the
    # reason scipy's quad gives
    integrals, real_quad = _slice_integrals(*_benchmark_slices()[0]), holography.quad
    for fn, a, b, points in integrals:
        limit = (1 if points is None else len(points) + 2) if tol == 1e-10 else 500
        monkeypatch.setattr(holography, "quad", lambda *args, **kwargs: real_quad(*args, **{**kwargs, "limit": limit}))
        *_, reason = quad(fn, a, b, points=points, epsabs=tol, epsrel=tol, limit=limit, full_output=1)
        with pytest.raises(ValueError, match=re.escape(f"({' '.join(reason.split())})")):
            holography._integrate("slice", fn, a, b, tol, points=points)


def _spec_grid_slices(d, masses=(0.01, 0.1, 1.0, 10.0, 100.0, 1e3, 1e4)):
    """(spec, E) at 40 energies from 1e-3 E_c to within 1e-9 of E_c, for each
    mass parameter in d bulk dimensions; fresh specs, as above."""
    slices = []
    for mu in masses:
        spec = BlackHoleSpec(d=d, mu=mu)
        e_c = critical_energy(BlackHoleSpec(d=d, mu=mu))
        slices += [(spec, e_c * (1 - eta)) for eta in np.geomspace(0.999, 1e-9, 40)]
    return slices


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8, "benchmark", "tiny mu"])
def test_brentq_matches_scipy_bit_for_bit(d, monkeypatch):
    # every root find of these slices (horizon, critical radius, turning point)
    # runs through holography.brentq and through scipy.optimize.brentq at its
    # tolerances on the same f; at tiny mu an extrapolation divides by an
    # underflowed zero, which the routine turns into a rejected step
    ours, found = holography.brentq, []
    tols = dict(xtol=holography._BRENTQ_XTOL, rtol=holography._BRENTQ_RTOL)

    def both(f, a, b):
        calls = [0, 0]

        def counted(side):
            def g(x):
                calls[side] += 1
                return f(x)

            return g

        root = ours(counted(0), a, b)
        found.append((root, type(root), calls[0], scipy_brentq(counted(1), a, b, **tols), calls[1]))
        return root

    if d == "benchmark":
        slices = _benchmark_slices()
    elif d == "tiny mu":
        slices = _spec_grid_slices(4, (1e-65, 1e-35))
    else:
        slices = _spec_grid_slices(d)
    monkeypatch.setattr(holography, "brentq", both)
    monkeypatch.setattr(holography, "quad", lambda *args, **kwargs: (0.0, 0.0))  # root finds only
    for spec, E in slices:
        try:
            interior_volume(spec, E)
        except ValueError as exc:  # E = 1e-3 E_c is too small, which is found after its turning point
            assert "is too small: its turning point lies within 1e-06 r_h" in str(exc)
    assert len(found) == len(slices) + 2 * (len(slices) // (34 if d == "benchmark" else 40))
    roots = [(root, kind, n) for root, kind, n, _, _ in found]
    assert roots == [(root, float, n) for *_, root, n in found]  # scipy's root and evaluation count, as a float
    if d == "benchmark":  # turning points only: the traced wormhole-scramble round's holography.brentq.evals
        assert sum(n for i, (*_, n) in enumerate(found) if i % 36 > 1) == 1980


def test_brentq_returns_a_python_float_for_numpy_inputs():
    # a numpy root would make every integrand evaluated at it numpy arithmetic
    assert type(holography._BRENTQ_RTOL) is float
    E, rtol = np.float64(0.3), np.float64(4 * np.finfo(float).eps)
    root = holography.brentq(lambda r: E * E - r**3, np.float64(0.0), np.float64(1.0))
    assert type(root) is float and root == scipy_brentq(lambda r: E * E - r**3, 0.0, 1.0, xtol=1e-300, rtol=rtol)
    spec = BlackHoleSpec(d=4, mu=100.0)
    p = interior_volume(spec, np.float64(0.5) * critical_energy(spec))
    assert type(p.r_turn) is float and type(p.E) is float
    assert p == interior_volume(spec, 0.5 * critical_energy(spec))


@pytest.mark.parametrize(
    "f, message",
    [
        # scipy's message; the id keeps the case's name
        pytest.param(lambda x: x * x + 1.0, "must have different signs", id="<lambda>-have the same sign"),
        (lambda x: math.nan if x > 0.6 else x - 0.7, r"f\(1\) is NaN"),
        (lambda x: math.nan if 0.65 < x < 0.75 else x - 0.7, r"f\(0\.7\) is NaN"),  # at the first step
    ],
)
def test_brentq_rejects_a_bad_bracket_or_a_nan_like_scipy(f, message):
    with pytest.raises(ValueError, match=message):
        holography.brentq(f, 0.0, 1.0)
    with pytest.raises(ValueError):
        scipy_brentq(f, 0.0, 1.0, xtol=1e-300, rtol=holography._BRENTQ_RTOL)


@pytest.mark.parametrize("error", [OverflowError(34, "Numerical result out of range"), ValueError("f's own text")])
def test_brentq_passes_an_exception_raised_by_f_through(error):
    def f(x):
        if x > 0.5:
            raise error
        return x - 0.7

    with pytest.raises(type(error)) as raised:
        holography.brentq(f, 0.0, 1.0)
    assert raised.value is error


def test_brentq_gives_up_after_scipys_100_iterations():
    # f at mu = 1e100 on a bracket of 67 decades, from the first halving of
    # mu below r_h up to mu itself: too many for 100 steps
    spec = BlackHoleSpec(d=4, mu=1e100)
    lo = 1e100
    while blackening(spec, lo) >= 0:
        lo /= 2
    with pytest.raises(ValueError, match=r"did not converge in 100 iterations on the bracket \[1\.48368e\+33, 1e\+100\]"):
        holography.brentq(lambda r: blackening(spec, r), lo, 1e100)
    with pytest.raises(RuntimeError, match="Failed to converge after 100 iterations"):
        scipy_brentq(lambda r: blackening(spec, r), lo, 1e100, xtol=1e-300, rtol=holography._BRENTQ_RTOL)


@pytest.mark.parametrize("d, mu", [(4, 1e100), (5, 1e200), (4, 1e-50), (4, 1e-70), (4, 100.0), (5, 10.0), (6, 1.0)])
def test_horizon_bracket_is_one_octave(d, mu, monkeypatch):
    # far from mu ~ 1 the root find converges within its 100 steps, on [lo, 2 lo]
    real_brentq, brackets = holography.brentq, []

    def recorded(f, a, b, **kwargs):
        brackets.append((a, b))
        return real_brentq(f, a, b, **kwargs)

    monkeypatch.setattr(holography, "brentq", recorded)
    spec = BlackHoleSpec(d=d, mu=mu)
    r_h = spec.r_h
    [(lo, hi)] = brackets
    assert hi == 2 * lo and lo < r_h <= hi
    assert blackening(spec, lo) < 0 <= blackening(spec, hi)


def _four_integral_slice(spec, E, r_turn, tol=1e-10):
    """(volume, boundary_time_sum) integrated as interior_volume did before
    the stretched coordinate: the volume in u = sqrt(r - r_turn); the anchor
    time in u up to a window about r_h, across the window with the pole
    subtracted (it integrates to zero there), and beyond it in v = ln(r - r_h)."""
    d, mu, l = spec.d, spec.mu, spec.l_ads
    r_h, two_dm2 = spec.r_h, 2 * (d - 2)
    r_cut = 1e3 * max(r_h, l)
    coeffs = _turning_factor(spec, r_turn)

    def g(x):
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    def f(r):
        return 1.0 - mu / r ** (d - 3) + (r / l) ** 2

    def dt(r):
        x = r - r_turn
        return E / (f(r) * math.sqrt(x * g(x)))

    fp_h = (d - 3) * mu / r_h ** (d - 2) + 2 * r_h / l**2
    fpp_h = -(d - 2) * (d - 3) * mu / r_h ** (d - 1) + 2 / l**2
    pole_limit = -(fpp_h / (2 * fp_h**2) + r_h**two_dm2 / (2 * E * E))

    def subtracted(r):
        if abs(r - r_h) < 1e-9 * r_h:
            return pole_limit
        return dt(r) - 1.0 / (fp_h * (r - r_h))

    def checked(fn, a, b, points=None):
        value, abserr, _, *failure = quad(fn, a, b, points=points, epsabs=tol, epsrel=tol, limit=500, full_output=1)
        assert not failure and abserr <= max(tol, tol * abs(value))
        return value

    delta = 0.5 * min(r_h - r_turn, r_cut - r_h)
    volume = checked(lambda u: 4.0 * (r_turn + u * u) ** two_dm2 / math.sqrt(g(u * u)), 0.0, math.sqrt(r_h - r_turn))
    inner = checked(lambda u: 2.0 * E / (f(r_turn + u * u) * math.sqrt(g(u * u))), 0.0, math.sqrt(r_h - delta - r_turn))
    window = checked(subtracted, r_h - delta, r_h + delta, points=[r_h])
    outer = checked(lambda v: math.exp(v) * dt(r_h + math.exp(v)), math.log(delta), math.log(r_cut - r_h))
    return volume, -2.0 * (inner + window + outer)


def test_interior_volume_matches_the_four_integral_slice():
    # reference: the same slice in four quadratures, in u, r and v, with the
    # horizon pole integrated to zero over a window instead of in closed form
    for spec, E in _benchmark_slices():
        p = interior_volume(spec, E)
        volume, t_sum = _four_integral_slice(spec, float(E), p.r_turn)
        assert p.interior_volume_per_sphere == pytest.approx(volume, rel=2e-15)
        assert p.boundary_time_sum == pytest.approx(t_sum, rel=1e-11)


def test_interior_volume_raises_on_failed_quadrature(monkeypatch):
    spec = BlackHoleSpec(d=4, mu=100.0)
    monkeypatch.setattr(holography, "QUAD_TOL", 1e-300)
    with pytest.raises(ValueError, match=r"volume integral did not converge: abserr .*, tol 1e-300"):
        interior_volume(spec, 0.99 * critical_energy(spec))


def test_interior_volume_sweep_raises_no_warning():
    # the benchmark's grid: 34 slices from eta = 1e-1 down to 1e-7 per spec
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for d, mu in ((4, 100.0), (5, 10.0), (6, 1.0)):
            spec = BlackHoleSpec(d=d, mu=mu)
            points = volume_curve(spec, eta_max=1e-1, eta_min=1e-7, points=34)
            assert np.all(np.diff([p.interior_volume_per_sphere for p in points]) > 0)
            assert np.all(np.diff([p.boundary_time_sum for p in points]) > 0)


def _mpmath_slice(d, mu, E, dps=40):
    """Volume per unit sphere and boundary_time_sum at l = 1, by tanh-sinh
    quadrature of the unsubstituted integrands in dps-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        mu, E = mp.mpf(mu), mp.mpf(E)
        f = lambda r: 1 - mu / r ** (d - 3) + r**2
        phi = lambda r: E**2 + r ** (2 * d - 4) * f(r)
        stationarity = lambda r: (d - 1) * mu - (2 * d - 4) * r ** (d - 3) - (2 * d - 2) * r ** (d - 1)
        lo, hi = mp.mpf(10) ** -6, max(mu, mp.mpf(1))
        r_h = mp.findroot(f, (lo, hi), solver="anderson")
        r_m = mp.findroot(stationarity, (lo, r_h), solver="anderson")
        r_t = mp.findroot(phi, (r_m, r_h), solver="anderson")
        fp_h = (d - 3) * mu / r_h ** (d - 2) + 2 * r_h
        r_cut = 1000 * max(r_h, 1)
        delta = (r_h - r_t) / 2

        def where_real(fn):
            # nodes that crowd the turning point can round the radicand to <= 0
            def guarded(r):
                rad = phi(r)
                return 0 if rad <= 0 else fn(r, rad)
            return guarded

        dvol = where_real(lambda r, rad: 2 * r ** (2 * d - 4) / mp.sqrt(rad))
        dt = where_real(lambda r, rad: E / (f(r) * mp.sqrt(rad)))

        def window(r):
            # within 1e-25 of r_h the two terms cancel to noise at this precision
            if abs(r - r_h) < mp.mpf(10) ** -25:
                return 0
            return dt(r) - 1 / (fp_h * (r - r_h))

        # breakpoints resolve the narrow peak at the turning point; they must increase
        near = [r_t + (r_h - r_t) * mp.mpf(10) ** -j for j in range(12, 0, -1)]
        volume = mp.quad(dvol, [r_t, *near, r_h])
        inner = mp.quad(dt, [r_t, *[x for x in near if x < r_h - delta], r_h - delta])
        pole = mp.quad(window, [r_h - delta, r_h, r_h + delta])
        outer = mp.quad(dt, [r_h + delta, 2 * r_h, 10 * r_h, 100 * r_h, r_cut])
        return float(volume), float(-2 * (inner + pole + outer))


@pytest.mark.parametrize("eta", [1e-1, 1e-4, 1e-7])
@pytest.mark.parametrize("d, mu", [(4, 100.0), (5, 10.0), (6, 1.0)])
def test_near_critical_slice_against_mpmath(d, mu, eta):
    spec = BlackHoleSpec(d=d, mu=mu)
    E = critical_energy(spec) * (1 - eta)
    volume, t_sum = _mpmath_slice(d, mu, E)
    p = interior_volume(spec, E)
    assert p.interior_volume_per_sphere == pytest.approx(volume, rel=1e-10)
    assert p.boundary_time_sum == pytest.approx(t_sum, rel=1e-10)


def test_boundary_time_insensitive_to_cut_radius(monkeypatch):
    spec = BlackHoleSpec(d=4, mu=100.0)
    E = 0.9 * critical_energy(spec)
    base = interior_volume(spec, E)
    monkeypatch.setattr(holography, "RCUT_FACTOR", 2e3)
    far = interior_volume(spec, E)
    assert far.boundary_time_sum == pytest.approx(base.boundary_time_sum, rel=1e-6)
    assert far.interior_volume_per_sphere == base.interior_volume_per_sphere


def test_late_time_slope_in_five_dimensions():
    spec = BlackHoleSpec(d=5, mu=50.0)
    _, v_d = critical_surface(spec)
    points = volume_curve(spec, eta_max=1e-3, eta_min=1e-5, points=5)
    ts = [p.boundary_time_sum for p in points]
    vs = [spec.omega * p.interior_volume_per_sphere for p in points]
    slope = np.polyfit(ts, vs, 1)[0]
    assert slope == pytest.approx(v_d, rel=0.02)


def test_interior_volume_quadrature_self_consistency(monkeypatch):
    spec = BlackHoleSpec(d=4, mu=100.0)
    e = 0.999 * critical_energy(spec)
    monkeypatch.setattr(holography, "QUAD_TOL", 1e-10)
    a = interior_volume(spec, e)
    monkeypatch.setattr(holography, "QUAD_TOL", 5e-11)
    b = interior_volume(spec, e)
    rel = abs(a.interior_volume_per_sphere - b.interior_volume_per_sphere) / b.interior_volume_per_sphere
    assert rel < 1e-6


def test_late_time_slope_matches_critical_rate():
    spec = BlackHoleSpec(d=4, mu=100.0)
    _, v_d = critical_surface(spec)
    points = volume_curve(spec, eta_max=1e-3, eta_min=1e-5, points=7)
    ts = [p.boundary_time_sum for p in points]
    vs = [spec.omega * p.interior_volume_per_sphere for p in points]
    slope = np.polyfit(ts, vs, 1)[0]
    assert slope == pytest.approx(v_d, rel=5e-3)


def test_cv_rate_high_temperature_constant():
    ratios = [cv_rate(BlackHoleSpec(d=4, mu=m)).ratio for m in (1e3, 1e4, 1e5)]
    spread = (max(ratios) - min(ratios)) / min(ratios)
    assert spread < 0.02
    assert ratios[-1] == pytest.approx(8 * math.pi / 3, rel=0.02)
    rate = cv_rate(BlackHoleSpec(d=4, mu=1e4))
    assert rate.dC_dt == pytest.approx(8 * math.pi * 0.5 * 1e4 / 2, rel=0.01)


def test_rindler_rate_finite_positive():
    for spec in SPEC_GRID:
        r = rindler_rate(spec)
        assert math.isfinite(r) and r > 0


def test_wdw_action_rate_small_d4():
    spec = BlackHoleSpec(d=4, mu=1.0)
    rate = wdw_action_rate(spec)
    # at d = 4, l = G = 1 the total reduces to r_h + r_h^3 = mu = 2M
    assert rate.total == pytest.approx(spec.r_h + spec.r_h**3, rel=1e-12)
    assert rate.total == pytest.approx(1.0, rel=1e-12)
    assert spec.mass == pytest.approx(0.5)


@pytest.mark.parametrize("spec", SPEC_GRID)
def test_wdw_action_rate_is_twice_mass(spec):
    rate = wdw_action_rate(spec)
    assert abs(rate.total - 2 * spec.mass) / (2 * spec.mass) < 1e-8
    assert rate.bulk < 0 < rate.boundary


def test_wdw_action_rate_massless_limit():
    spec = BlackHoleSpec(d=4, mu=1e-8)
    assert abs(wdw_action_rate(spec).total) < 1e-6


def test_lloyd_bound_saturated():
    for spec in SPEC_GRID:
        report = lloyd_bound(spec)
        assert report.saturation == pytest.approx(1.0, abs=1e-8)
    spec = BlackHoleSpec(d=4, mass=0.5)
    assert lloyd_bound(spec).bound == pytest.approx(1 / math.pi)
    assert lloyd_bound(spec, hbar=2.0).bound == pytest.approx(1 / (2 * math.pi))
    double = BlackHoleSpec(d=4, mass=1.0)
    assert lloyd_bound(double).bound == pytest.approx(2 * lloyd_bound(spec).bound)
    with pytest.raises(ValueError):
        lloyd_bound(spec, hbar=0.0)
