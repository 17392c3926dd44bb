"""AdS-Schwarzschild geometry made numerical.

The eternal black hole is a BlackHoleSpec, which carries its horizon
radius, Hawking temperature, horizon entropy, critical interior radius
and critical energy.  Around it sit the blackening factor; the critical
interior surface whose volume rate bounds the late-time growth of the
Einstein-Rosen bridge; maximal-volume slices anchored at finite boundary
times; volume-complexity growth rates; and the late-time action growth of
the Wheeler-DeWitt patch, which equals 2M for neutral static black holes
of any size and therefore saturates the 2M / (pi hbar) bound on
complexity growth.

Units default to G = l_ads = hbar = 1 and every quantity is configurable
through BlackHoleSpec.

``brentq`` calls scipy's compiled Brent routine and ``quad`` its compiled
QUADPACK, each extension loaded by itself on first use: a spec, its
horizon and critical radius and every rate that needs no slice load only
scipy.optimize._zeros, and a slice adds scipy.integrate._quadpack.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

_BRENTQ_XTOL = 1e-300
_BRENTQ_RTOL = 4 * sys.float_info.epsilon
_BRENTQ_MAXITER = 100
QUAD_TOL = 1e-10  # absolute and relative tolerance of every slice quadrature
RCUT_FACTOR = 1e3  # a slice's anchor time runs out to r_cut = RCUT_FACTOR max(r_h, l_ads)
_POLE_BAND = 1e-9  # relative half-width of the band about r_h where the pole subtraction cancels to noise


_QUADPACK = "scipy.integrate._quadpack"
_ZEROS = "scipy.optimize._zeros"
# scipy's compiled extensions that holography calls, and the routines each must have
_SCIPY_EXTENSIONS = {_QUADPACK: ("_qagse", "_qagpe"), _ZEROS: ("_brentq",)}
# scipy's quad messages for each QUADPACK error code ier, each on one line
_QUADPACK_MESSAGES = {
    1: "The maximum number of subdivisions ({limit}) has been achieved. If increasing the limit yields no "
    "improvement it is advised to analyze the integrand in order to determine the difficulties. If the position "
    "of a local difficulty can be determined (singularity, discontinuity) one will probably gain from splitting "
    "up the interval and calling the integrator on the subranges. Perhaps a special-purpose integrator should be "
    "used.",
    2: "The occurrence of roundoff error is detected, which prevents the requested tolerance from being achieved. "
    "The error may be underestimated.",
    3: "Extremely bad integrand behavior occurs at some points of the integration interval.",
    4: "The algorithm does not converge. Roundoff error is detected in the extrapolation table. It is assumed that "
    "the requested tolerance cannot be achieved, and that the returned result (if full_output = 1) is the best "
    "which can be obtained.",
    5: "The integral is probably divergent, or slowly convergent.",
    6: "The input is invalid.",
    7: "Abnormal termination of the routine. The estimates for result and error are less reliable. It is assumed "
    "that the requested accuracy has not been achieved.",
}


def _scipy_extension(name: str):
    """scipy's compiled extension ``name``, a key of _SCIPY_EXTENSIONS.

    Its package (scipy.integrate, scipy.optimize) would load some 320-355
    scipy modules that holography never uses, so on first call the
    extension is loaded by itself from scipy's install directory and
    registered under its own name: a later import of the package reuses
    it, and one imported before is taken as it is.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    import importlib.util
    import os
    from importlib.machinery import EXTENSION_SUFFIXES

    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise ImportError(f"{name} needs scipy, which is not installed")
    _, package, stem = name.split(".")
    routines = _SCIPY_EXTENSIONS[name]
    for directory in scipy_spec.submodule_search_locations:
        for suffix in EXTENSION_SUFFIXES:
            path = os.path.join(directory, package, stem + suffix)
            if os.path.exists(path):
                spec = importlib.util.spec_from_file_location(name, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                if all(hasattr(module, routine) for routine in routines):
                    sys.modules[name] = module
                    return module
    import scipy

    raise ImportError(f"scipy {scipy.__version__} has no compiled {name} with {' and '.join(routines)}")


# Every call site goes through these two module names, so a caller that
# patches holography.quad or holography.brentq sees every call.
def quad(fn, a: float, b: float, points=None, epsabs=1.49e-8, epsrel=1.49e-8, limit=50, full_output=0):
    """scipy.integrate.quad over a finite [a, b], calling scipy's compiled
    QUADPACK directly: QAGSE, or QAGPE with breakpoints.

    As in scipy, the breakpoints are taken once each and only strictly
    inside (a, b), and the same arguments give the same value, error
    estimate and evaluations.  Returns (value, abserr), then the info dict
    if full_output; a QUADPACK error code ier other than 0 appends scipy's
    message for it, where scipy's quad would only warn without full_output.
    """
    quadpack = _scipy_extension(_QUADPACK)
    if points is None:
        *result, ier = quadpack._qagse(fn, a, b, (), full_output, epsabs, epsrel, limit)
    else:
        # the interior points once each in increasing order, as np.unique gives
        # them, then the two more slots than breakpoints that QAGPE takes
        breaks = np.array([*sorted({p for p in points if a < p < b}), 0.0, 0.0])
        *result, ier = quadpack._qagpe(fn, a, b, breaks, (), full_output, epsabs, epsrel, limit)
    if ier != 0:
        result.append(_QUADPACK_MESSAGES.get(ier, "Unknown error.").format(limit=limit))
    return tuple(result)


def brentq(f, a: float, b: float) -> float:
    """Root of f in [a, b] by scipy's compiled Brent routine, _brentq from
    scipy.optimize._zeros, at xtol _BRENTQ_XTOL and rtol _BRENTQ_RTOL.

    Each value of f is taken as a Python float, and so is the root.  A
    same-sign bracket, a NaN value of f or no convergence in 100
    iterations raises ValueError; an exception raised by f passes through.
    """

    def value(x: float) -> float:
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"root find: f({x:.6g}) is NaN")
        return fx

    zeros = _scipy_extension(_ZEROS)
    root, _, _, flag = zeros._brentq(value, a, b, _BRENTQ_XTOL, _BRENTQ_RTOL, _BRENTQ_MAXITER, (), True, False)
    if flag:  # no convergence, the one failure scipy returns rather than raises
        raise ValueError(f"root find did not converge in {_BRENTQ_MAXITER} iterations on the bracket [{a:.6g}, {b:.6g}]")
    return root


@dataclass(frozen=True)
class BlackHoleSpec:
    """Eternal AdS-Schwarzschild black hole in d bulk spacetime dimensions.

    Exactly one of ``mu`` (mass parameter) or ``mass`` must be given; they
    are tied by mu = 16 pi G M / ((d-2) Omega_{d-2}).
    """

    d: int
    mu: float | None = None
    mass: float | None = None
    l_ads: float = 1.0
    G: float = 1.0

    def __post_init__(self):
        if isinstance(self.d, bool) or not isinstance(self.d, numbers.Integral):
            raise ValueError(f"need an integer bulk dimension d, got {self.d!r}")
        if self.d < 4:
            raise ValueError(f"need bulk dimension d >= 4, got {self.d}")
        if self.l_ads <= 0 or self.G <= 0:
            raise ValueError("l_ads and G must be positive")
        if (self.mu is None) == (self.mass is None):
            raise ValueError("give exactly one of mu or mass")
        if self.mu is None:
            object.__setattr__(self, "mu", 16 * math.pi * self.G * self.mass / ((self.d - 2) * self.omega))
        else:
            object.__setattr__(self, "mass", self.mu * (self.d - 2) * self.omega / (16 * math.pi * self.G))
        if self.mu <= 0:
            raise ValueError(f"need a positive mass parameter, got mu={self.mu}")

    @property
    def omega(self) -> float:
        """Volume of the unit (d-2)-sphere, 2 pi^((d-1)/2) / Gamma((d-1)/2)."""
        return 2 * math.pi ** ((self.d - 1) / 2) / math.gamma((self.d - 1) / 2)

    @cached_property
    def r_h(self) -> float:
        """Horizon radius: the unique positive root of the blackening factor
        (f is strictly increasing), found by brentq in a one-octave bracket
        [lo, 2 lo], so the root find needs few steps whatever mu."""
        hi = max(self.l_ads, self.mu ** (1.0 / (self.d - 3)), 1.0)
        while blackening(self, hi) <= 0:
            hi *= 2
        lo = hi
        while blackening(self, lo) >= 0:  # ends with f(lo) < 0 <= f(hi), hi = 2 lo
            hi, lo = lo, lo / 2
        return brentq(lambda r: blackening(self, r), lo, hi)

    @cached_property
    def r_m(self) -> float:
        """Critical interior radius of critical_surface, the one maximizing
        r^(d-2) sqrt|f|.  The stationarity condition
        (d-1) mu - (2d-4) r^(d-3) - (2d-2) r^(d-1)/l^2 = 0 is strictly
        decreasing in r, so the maximizer is its unique root."""
        d, l = self.d, self.l_ads

        def stationarity(r: float) -> float:
            return (d - 1) * self.mu - (2 * d - 4) * r ** (d - 3) - (2 * d - 2) * r ** (d - 1) / l**2

        return brentq(stationarity, 1e-12 * self.r_h, self.r_h)

    @cached_property
    def e_c(self) -> float:
        """Critical energy r_m^(d-2) sqrt|f(r_m)|, the largest conserved
        energy of an interior maximal-volume slice (critical_energy)."""
        r_m = self.r_m
        return math.sqrt(-(r_m ** (2 * (self.d - 2))) * blackening(self, r_m))

    @cached_property
    def temperature(self) -> float:
        """Surface-gravity (Hawking) temperature f'(r_h) / (4 pi)."""
        return blackening_derivative(self, self.r_h) / (4 * math.pi)

    @cached_property
    def entropy(self) -> float:
        """Horizon area over 4G: Omega_{d-2} r_h^(d-2) / (4G)."""
        return self.omega * self.r_h ** (self.d - 2) / (4 * self.G)


def blackening(spec: BlackHoleSpec, r: float) -> float:
    """f(r) = 1 - mu / r^(d-3) + r^2 / l^2."""
    r = np.asarray(r, dtype=float)  # numpy's 0-d power, not Python's: they can differ in the last bit
    if r <= 0:
        raise ValueError("r must be positive")
    return float(1.0 - spec.mu / r ** (spec.d - 3) + (r / spec.l_ads) ** 2)


def blackening_derivative(spec: BlackHoleSpec, r: float) -> float:
    return (spec.d - 3) * spec.mu / r ** (spec.d - 2) + 2 * r / spec.l_ads**2


def _blackening_second(spec: BlackHoleSpec, r: float) -> float:
    return -(spec.d - 2) * (spec.d - 3) * spec.mu / r ** (spec.d - 1) + 2 / spec.l_ads**2


def critical_surface(spec: BlackHoleSpec) -> tuple[float, float]:
    """(r_m, V_d): the interior radius maximizing r^(d-2) sqrt|f| and the
    corresponding limiting volume rate Omega_{d-2} r_m^(d-2) sqrt|f(r_m)|."""
    return spec.r_m, spec.omega * spec.e_c


def critical_energy(spec: BlackHoleSpec) -> float:
    """Per-unit-sphere limiting rate E_c = r_m^(d-2) sqrt|f(r_m)|; maximal
    conserved energy of an interior maximal-volume slice (spec.e_c)."""
    return spec.e_c


@dataclass(frozen=True)
class VolumeCurvePoint:
    """One maximal slice: conserved energy, turning radius, interior volume
    per unit sphere, and the total boundary anchor time t_l + t_r."""

    E: float
    r_turn: float
    interior_volume_per_sphere: float
    boundary_time_sum: float


def _turning_factor(spec: BlackHoleSpec, r0: float) -> tuple[float, ...]:
    """Coefficients, highest degree first, of the polynomial g with
    P(r0 + x) - P(r0) = x g(x), where P(r) = r^(2d-4) f(r)
    = r^(2d-4) - mu r^(d-1) + r^(2d-2) / l^2.

    Each monomial a r^n adds a C(n, k) r0^(n-k) to the x^k Taylor
    coefficient of P about r0, so g has degree 2d-3 and is exact: no
    difference of two nearly equal values of P is ever formed.
    """
    d = spec.d
    coeffs = [0.0] * (2 * d - 2)  # x^1 .. x^(2d-2)
    for n, a in ((2 * d - 4, 1.0), (d - 1, -spec.mu), (2 * d - 2, 1.0 / spec.l_ads**2)):
        for k, binomial in enumerate(_binomials(n), 1):
            coeffs[k - 1] += a * binomial * r0 ** (n - k)
    return tuple(reversed(coeffs))


@cache
def _binomials(n: int) -> tuple[int, ...]:
    """C(n, k) for k = 1 .. n."""
    return tuple(math.comb(n, k) for k in range(1, n + 1))


def _integrate(name: str, fn, a: float, b: float, tol: float, points=None) -> float:
    """quad over [a, b] at absolute and relative tolerance tol; a reported
    failure, or an error estimate above the tolerance, raises ValueError."""
    value, abserr, *failure = quad(fn, a, b, points=points, epsabs=tol, epsrel=tol, limit=500)
    if failure or abserr > max(tol, tol * abs(value)):
        reason = " ".join(failure[0].split()) if failure else "error estimate above tolerance"
        raise ValueError(f"{name} integral did not converge: abserr {abserr:.3g}, tol {tol:.3g} ({reason})")
    return value


def interior_volume(spec: BlackHoleSpec, E: float) -> VolumeCurvePoint:
    """Maximal-volume slice through the interior at conserved energy E.

    The turning radius is the largest root of E^2 + P(r), P(r) =
    r^(2(d-2)) f(r), between the critical radius and the horizon.  P is
    a polynomial for integer d, so the radicand E^2 + P(r) measured from
    the turning point factors exactly as x g(x), x = r - r_turn, with g
    the Taylor expansion of P about r_turn divided by x (_turning_factor).
    Near criticality g(0) = P'(r_turn) is small, and evaluating g directly
    keeps the radicand free of the cancellation a difference of two
    values of P would suffer.

    Both integrals run in the stretched coordinate r = r_turn +
    a^2 sinh^2(w).  sqrt(x) = a sinh(w) cancels the inverse-square-root
    branch point at the turning point, and a = sqrt(g(0) / g'(0)), at
    most sqrt(r_h - r_turn), is the width of the peak of 1/sqrt(g) there,
    narrow near criticality and flat in w.  The volume integrand is
    4 a cosh(w) r^(2(d-2)) / sqrt(g).  The boundary anchor time
    integrates dt/dr = E / (f sqrt(x g(x))) from r_turn out to
    r_cut = RCUT_FACTOR max(r_h, l_ads), three decades away, across the
    simple pole at the horizon as a principal value: the quadrature takes
    dt/dr minus the pole 1/(f'(r_h) (r - r_h)), times dr/dw =
    2 a^2 sinh(w) cosh(w), which is regular at the horizon and tends to
    -2/f'(r_h) far out, where w grows like ln(r)/2; the pole's principal
    value ln((r_cut - r_h) / (r_h - r_turn)) / f'(r_h) is added in closed
    form.  Of the two geodesic branches through the turning point the one
    reaching the boundary at positive anchor time is reported, and the
    symmetric two-sided configuration makes boundary_time_sum = 2 t_r.

    Both integrals are checked: a quadrature that reports a failure, or
    whose error estimate exceeds max(QUAD_TOL, QUAD_TOL |result|), raises
    ValueError.  So does a turning point within 1e-6 r_h of the horizon,
    where the band about r_h in which dt/dr minus its pole is taken at its
    limit would not be small against r_h - r_turn.
    """
    E = float(E)  # a numpy scalar would make every integrand numpy arithmetic
    e_c = spec.e_c
    if not 0 <= E < e_c:
        raise ValueError(f"need 0 <= E < E_c = {e_c:.6g}, got E = {E}")
    r_h = spec.r_h
    if E == 0:
        return VolumeCurvePoint(0.0, r_h, 0.0, 0.0)

    # each integrand is a closure over constants bound once per slice, with
    # f(r) written out and every float operation in the order of the formulas
    two_dm2, dm3, mu, l_ads = 2 * (spec.d - 2), spec.d - 3, spec.mu, spec.l_ads
    sinh, cosh, sqrt = math.sinh, math.cosh, math.sqrt
    E2 = E * E
    r_turn = brentq(lambda r: E2 + r**two_dm2 * (1.0 - mu / r**dm3 + (r / l_ads) ** 2), spec.r_m, r_h)
    if r_turn >= r_h:
        raise ValueError(f"E = {E:.6g} is too small: its turning point rounds onto the horizon r_h = {r_h:.6g}")
    x_h = r_h - r_turn
    if x_h < 1e3 * _POLE_BAND * r_h:  # dt/dr minus its pole varies on the scale x_h
        raise ValueError(
            f"E = {E:.6g} is too small: its turning point lies within {1e3 * _POLE_BAND:.0e} r_h of the horizon "
            f"r_h = {r_h:.6g} (r_h - r_turn = {x_h:.3g})"
        )
    coeffs = _turning_factor(spec, r_turn)

    def g(x: float) -> float:
        acc = 0.0
        for c in coeffs:
            acc = acc * x + c
        return acc

    g0, g1 = coeffs[-1], coeffs[-2]
    a2 = g0 / g1 if g1 * x_h > g0 else x_h
    a = math.sqrt(a2)
    two_a, four_a = 2.0 * a, 4.0 * a

    def vol_integrand(w: float) -> float:
        s = sinh(w)
        x = a2 * s * s
        return four_a * cosh(w) * (r_turn + x) ** two_dm2 / sqrt(g(x))

    w_h = math.asinh(math.sqrt(x_h / a2))
    volume = _integrate("volume", vol_integrand, 0.0, w_h, QUAD_TOL)

    fp_h = blackening_derivative(spec, r_h)
    fpp_h = _blackening_second(spec, r_h)
    pole_limit = -(fpp_h / (2 * fp_h**2) + r_h**two_dm2 / (2 * E * E))
    pole_term, band = pole_limit * 2.0 * a2, _POLE_BAND * r_h

    def time_integrand(w: float) -> float:
        # dt/dr minus the horizon pole 1/(f'(r_h)(r - r_h)), times dr/dw
        s, c = sinh(w), cosh(w)
        x = a2 * s * s
        r = r_turn + x
        dr = r - r_h
        if -band < dr < band:
            return pole_term * s * c
        f = 1.0 - mu / r**dm3 + (r / l_ads) ** 2
        return two_a * c * (E / (f * sqrt(g(x))) - a * s / (fp_h * dr))

    r_cut = RCUT_FACTOR * max(r_h, l_ads)
    w_cut = math.asinh(math.sqrt((r_cut - r_turn) / a2))
    t_r = -(
        _integrate("anchor-time", time_integrand, 0.0, w_cut, QUAD_TOL, points=[w_h])
        + math.log((r_cut - r_h) / x_h) / fp_h
    )
    return VolumeCurvePoint(E, r_turn, volume, 2.0 * t_r)


def volume_curve(spec: BlackHoleSpec, eta_max: float, eta_min: float, points: int) -> list[VolumeCurvePoint]:
    """Slices on a geometric grid E = E_c (1 - eta) approaching criticality.
    A slice's ValueError is re-raised with that slice's eta and E."""
    if points < 2:
        raise ValueError("need at least 2 grid points")
    if not 0 < eta_min < eta_max <= 1:
        raise ValueError(f"need 0 < eta_min < eta_max <= 1, got eta_min {eta_min}, eta_max {eta_max}")
    e_c = spec.e_c
    curve = []
    for eta in np.geomspace(eta_max, eta_min, points).tolist():  # Python floats, so E is one too
        E = e_c * (1.0 - eta)
        try:
            curve.append(interior_volume(spec, E))
        except ValueError as exc:
            raise ValueError(f"{exc}; failed slice: eta {eta:.6g}, E {E:.6g}") from exc
    return curve


@dataclass(frozen=True)
class CVRate:
    dC_dt: float
    ratio: float


def cv_rate(spec: BlackHoleSpec) -> CVRate:
    """Late-time volume-complexity rate V_d / (l G) against entropy x temperature.

    In the high-temperature regime the ratio approaches the constant
    8 pi / (d - 1).
    """
    _, v_d = critical_surface(spec)
    rate = v_d / (spec.l_ads * spec.G)
    return CVRate(rate, rate / (spec.entropy * spec.temperature))


def rindler_rate(spec: BlackHoleSpec) -> float:
    """Complexity rate per dimensionless near-horizon boost angle:
    dC/dtau = (dC/dt) / (2 pi T)."""
    return cv_rate(spec).dC_dt / (2 * math.pi * spec.temperature)


@dataclass(frozen=True)
class ActionRate:
    bulk: float
    boundary: float
    total: float


def wdw_action_rate(spec: BlackHoleSpec) -> ActionRate:
    """Late-time growth rate of the Wheeler-DeWitt patch action.

    bulk: the interior volume term -r_h^(d-1) Omega_{d-2} / (8 pi G l^2).
    boundary: the surface (extrinsic-curvature) bracket
        -((d-1)/(d-2)) M + (r^(d-3) Omega / (8 pi G)) ((d-2) + (d-1) r^2/l^2)
    evaluated at r_h minus at r = 0.  Their sum collapses, through
    f(r_h) = 0, to exactly 2M for every neutral static spec.
    """
    d, l, G, om = spec.d, spec.l_ads, spec.G, spec.omega
    r_h = spec.r_h
    bulk = -(r_h ** (d - 1)) * om / (8 * math.pi * G * l**2)

    def bracket(r: float) -> float:
        if r == 0.0:
            surface = 0.0
        else:
            surface = r ** (d - 3) * om / (8 * math.pi * G) * ((d - 2) + (d - 1) * r**2 / l**2)
        return -((d - 1) / (d - 2)) * spec.mass + surface

    boundary = bracket(r_h) - bracket(0.0)
    return ActionRate(bulk, boundary, bulk + boundary)


@dataclass(frozen=True)
class LloydReport:
    bound: float
    saturation: float


def lloyd_bound(spec: BlackHoleSpec, hbar: float = 1.0) -> LloydReport:
    """Maximal complexification rate 2M / (pi hbar) against the
    action-complexity rate; neutral static black holes saturate it."""
    if hbar <= 0:
        raise ValueError("hbar must be positive")
    bound = 2 * spec.mass / (math.pi * hbar)
    rate = wdw_action_rate(spec).total / (math.pi * hbar)
    return LloydReport(bound, rate / bound)
