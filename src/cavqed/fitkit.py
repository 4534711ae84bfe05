"""Nonlinear least-squares engine and the standard fit models.

The Levenberg-Marquardt core is self-contained (damping 1e-3 start, x10 on
rejection, /10 on acceptance, Marquardt diagonal scaling) and accepts an
analytic Jacobian or falls back to central differences with a 1e-6 relative
step.  It stops once an accepted step lowers the cost by less than 1e-10
relative, just above the rounding noise of a cost summed over 10^2-10^3 rows
(MINPACK's cost-reduction test; scipy's ``least_squares`` defaults to 1e-8).
On top of it sit the four models the analysis pipeline needs:

* multi-Lorentzian (optionally Gaussian-blurred, i.e. Voigt) spectra,
* polariton anti-crossing peak positions versus detuning,
* detuning-dependent lifetime from the Lorentzian emission-rate law,
* (IRF-convolved) exponential decays as Poisson maximum likelihood.

A spectral line of either kernel is area Re F of one analytic function F,
evaluated once per fit point for both the model and its Jacobian.  Decay fits
minimize the Poisson deviance, which is exact maximum likelihood for counting
data while reusing the least-squares machinery; they pass their analytic
Jacobian, chained through the model mean.  A fit's ``init`` holds start
values by parameter name and refuses any other key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import erfc, wofz

from . import polariton
from .dynamics import NumericalError
from .hbt import Histogram
from .polariton import Spectrum, SystemParams
from .units import FWHM_TO_SIGMA, SPEED_OF_LIGHT_NM_GHZ, detuning_to_frequency

__all__ = [
    "FitResult",
    "levenberg_marquardt",
    "fit_lorentzians",
    "fit_anticrossing",
    "fit_lifetime_curve",
    "fit_decay",
    "fit_damped_modes",
    "peak_locations",
]


@dataclass
class FitResult:
    """Best-fit parameters with Jacobian-based uncertainties."""

    params: dict
    stderr: dict
    residual_norm: float
    n_iterations: int
    converged: bool
    message: str = ""
    derived: dict = field(default_factory=dict)


def _fd_jacobian(residual, x):
    """Central-difference Jacobian, step 1e-6 relative (absolute floor 1e-9)."""
    cols = []
    for k in range(x.size):
        h = 1e-6 * max(abs(x[k]), 1e-3)
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        cols.append((residual(xp) - residual(xm)) / (2.0 * h))
    return np.column_stack(cols)


def levenberg_marquardt(residual, x0, jacobian=None, n_data=None):
    """Minimize ||residual(x)||^2; returns (x, covariance, info dict).

    The damping parameter multiplies the diagonal of J'J, starts at 1e-3
    and moves by factors of 10; a step is accepted only if it lowers the sum
    of squares, so the residual norm is non-increasing over accepted steps.
    Converged: gradient below 1e-12 max(1, cost), or an accepted step with
    relative cost drop < 1e-10 or relative move < 1e-12.  Not converged: 200
    iterations, or a stall where no damping up to 1e12 lowers the cost.
    The 1e-10 sits above the rounding noise of a cost summed over hundreds
    of rows, where a tighter stop lets rounding decide and fits zigzag up to
    the iteration cap, and below scipy ``least_squares``' default ``ftol``
    of 1e-8.
    ``n_data`` overrides the row count used for the covariance scale when the
    residual vector carries extra constraint rows.  The covariance is None
    when J'J is singular, as a parameter the data do not determine makes it.
    """
    x = np.asarray(x0, dtype=float).copy()
    r = np.asarray(residual(x), dtype=float)
    cost = float(r @ r)
    lam = 1e-3
    converged = False
    message = "max iterations reached"
    for n_iter in range(1, 201):
        jac = jacobian(x) if jacobian is not None else _fd_jacobian(residual, x)
        grad = jac.T @ r
        if np.max(np.abs(grad)) < 1e-12 * max(1.0, cost):
            converged, message = True, "gradient below tolerance"
            break
        a = jac.T @ jac
        diag = np.maximum(np.diag(a), 1e-14 * max(np.max(np.diag(a)), 1.0))
        accepted = False
        while lam < 1e12:
            try:
                step = np.linalg.solve(a + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(a + lam * np.diag(diag), -grad, rcond=None)
            x_new = x + step
            r_new = np.asarray(residual(x_new), dtype=float)
            cost_new = float(r_new @ r_new)
            if np.isfinite(cost_new) and cost_new <= cost:
                rel_drop = (cost - cost_new) / max(cost, 1e-300)
                rel_step = np.max(np.abs(step) / np.maximum(np.abs(x_new), 1e-12))
                x, r, cost = x_new, r_new, cost_new
                lam = max(lam / 10.0, 1e-12)
                accepted = True
                if rel_drop < 1e-10 or rel_step < 1e-12:
                    converged, message = True, "cost change below tolerance"
                break
            lam *= 10.0
        if not accepted:
            message = "damping exhausted: no step lowers the cost"
            break
        if converged:
            break
    m, n = jac.shape
    if n_data is not None:
        m = n_data
    cov = None
    if m > n:
        try:
            cov = np.linalg.inv(jac.T @ jac) * cost / (m - n)
        except np.linalg.LinAlgError:
            pass
    return x, cov, {"n_iterations": n_iter, "converged": converged,
                    "message": message, "residual_norm": math.sqrt(cost)}


def _checked_init(init, names, required=()) -> dict:
    """``init`` as a dict, refusing keys outside ``names`` and missing ``required`` ones."""
    init = dict(init or {})
    problems = [f"unknown key {k!r}" for k in init if k not in names]
    problems += [f"missing key {k!r}" for k in required if k not in init]
    if problems:
        raise ValueError(f"init: {', '.join(problems)}; the keys are {', '.join(names)}")
    return init


def _result(names, x, cov, info, derived=None) -> FitResult:
    stderr = {}
    for i, name in enumerate(names):
        err = math.sqrt(max(cov[i, i], 0.0)) if cov is not None else float("nan")
        stderr[name] = err
    return FitResult(params=dict(zip(names, x)), stderr=stderr,
                     residual_norm=info["residual_norm"],
                     n_iterations=info["n_iterations"],
                     converged=info["converged"], message=info["message"],
                     derived=derived or {})


# ---------------------------------------------------------------------------
# peak finding / initialization heuristics
# ---------------------------------------------------------------------------

def _prominence(ys: np.ndarray, i: int) -> float:
    """Height of the interior maximum ys[i] above the higher of the lowest
    points between it and the nearest taller sample (or the edge) on each side."""
    floors = []
    for side in (ys[i - 1::-1], ys[i + 1:]):
        taller = np.flatnonzero(side > ys[i])
        floors.append(side[:taller[0] if taller.size else side.size].min())
    return ys[i] - max(floors)


def peak_locations(axis: np.ndarray, intensity: np.ndarray, n_peaks: int) -> np.ndarray:
    """Locations of the ``n_peaks`` most prominent local maxima, parabola-refined.

    Light smoothing suppresses single-sample noise spikes, and ranking by
    prominence instead of height puts the noise ripples on a line's top below
    a separate line, however close that line sits.  The positions are sorted
    ascending.
    """
    axis = np.asarray(axis, float)
    y = np.asarray(intensity, float)
    if axis.size < 5:
        raise ValueError("need at least 5 samples to locate peaks")
    kernel = np.ones(5) / 5.0
    ys = np.convolve(y, kernel, mode="same")
    interior = np.nonzero((ys[1:-1] >= ys[:-2]) & (ys[1:-1] > ys[2:]))[0] + 1
    if interior.size < n_peaks:
        raise NumericalError(f"found only {interior.size} of {n_peaks} requested peaks")
    prominence = [_prominence(ys, i) for i in interior]
    i = interior[np.argsort(prominence)[::-1][:n_peaks]]
    y0, y1, y2 = y[i - 1], y[i], y[i + 1]
    denom = y0 - 2.0 * y1 + y2
    shift = np.clip(0.5 * (y0 - y2) / np.where(denom != 0, denom, np.inf), -1.0, 1.0)
    return np.sort(axis[i] + shift * (axis[i + 1] - axis[i]))


def _halfmax_width(axis, y, center, floor) -> float:
    """Rough FWHM of the feature at ``center`` from half-max crossings."""
    i = int(np.argmin(np.abs(axis - center)))
    half = floor + 0.5 * (y[i] - floor)
    j = i
    while j + 1 < y.size and y[j] > half:
        j += 1
    k = i
    while k - 1 >= 0 and y[k] > half:
        k -= 1
    width = axis[j] - axis[k]
    span = axis[-1] - axis[0]
    return float(np.clip(width, span / y.size, span / 2.0))


# ---------------------------------------------------------------------------
# multi-Lorentzian / Voigt spectra
# ---------------------------------------------------------------------------

def _lines(x, p, n_peaks, sigma_g):
    """(F, z) of each line of ``p``: the line is area Re F(zeta), with
    zeta = x - center + i max(|fwhm|, 1e-12) / 2 and F = i / (pi zeta) at
    z = zeta (Lorentzian), or with ``sigma_g`` > 0 the Voigt line
    F = w(z) / (sigma sqrt(2 pi)) at z = zeta / (sigma sqrt 2)."""
    out = []
    for k in range(n_peaks):
        c, w = p[1 + 3 * k: 3 + 3 * k]
        zeta = x - c + 0.5j * max(abs(w), 1e-12)
        if sigma_g == 0.0:
            out.append((1j / (math.pi * zeta), zeta))
        else:
            z = zeta / (sigma_g * math.sqrt(2.0))
            out.append((wofz(z) / (sigma_g * math.sqrt(2.0 * math.pi)), z))
    return out


def _peaks_jacobian(x, p, n_peaks, sigma_g, lines=None):
    """Analytic Jacobian of a constant plus ``n_peaks`` :func:`_lines` terms.

    ``lines`` passes the lines at ``p`` when the model already has them.
    A line area Re F has the columns -area Re F', -area Im F' sign(fwhm) / 2
    and Re F.  F' = -F / zeta for the Lorentzian; for the Voigt line it is
    (-2 z F + 2i / (pi sigma sqrt 2)) / (sigma sqrt 2), as the Faddeeva
    function has w'(z) = -2 z w(z) + 2i/sqrt(pi) (Abramowitz & Stegun 7.1.20).
    """
    if lines is None:
        lines = _lines(x, p, n_peaks, sigma_g)
    cols = [np.ones_like(x)]
    for (f, z), w, a in zip(lines, p[2::3], p[3::3]):
        if sigma_g == 0.0:
            df = -f / z
        else:
            scale = sigma_g * math.sqrt(2.0)
            df = (-2.0 * z * f + 2j / (math.pi * scale)) / scale
        cols += [-a * df.real, -0.5 * a * df.imag * (1.0 if w >= 0 else -1.0), f.real]
    return np.column_stack(cols)


def fit_lorentzians(data: Spectrum, n_peaks: int, init: dict | None = None,
                    gaussian_fwhm: float = 0.0) -> FitResult:
    """Fit a sum of 1..3 Lorentzian peaks plus a constant background.

    With ``gaussian_fwhm`` > 0 each peak is the Lorentzian convolved with a
    Gaussian of that FWHM (a Voigt profile with the Gaussian part held
    fixed), which deconvolves a known instrument response: the reported
    ``fwhm_k`` are then the underlying Lorentzian widths.  Per-peak areas and
    area fractions are reported in ``derived``.  ``init`` gives the start
    values by parameter name, each but ``background`` (default 0) required;
    without it they come from the data.
    """
    if not 1 <= n_peaks <= 3:
        raise ValueError("n_peaks must be 1, 2 or 3")
    x = np.asarray(data.axis, float)
    y = np.asarray(data.intensity, float)
    if x.size < 3 * n_peaks + 1:
        raise ValueError("not enough samples for the requested peak count")
    sigma_g = gaussian_fwhm * FWHM_TO_SIGMA
    names = ["background"]
    for k in range(1, n_peaks + 1):
        names += [f"center_{k}", f"fwhm_{k}", f"area_{k}"]
    if init is None:
        floor = float(np.percentile(y, 5))
        p0 = [floor]
        for c in peak_locations(x, y, n_peaks):
            w = _halfmax_width(x, y, c, floor)
            h = float(y[np.argmin(np.abs(x - c))] - floor)
            p0 += [c, w, max(h, 1e-12) * math.pi * w / 2.0]
    else:
        init = _checked_init(init, names, required=names[1:])
        p0 = [init.get(name, 0.0) for name in names]
    p0 = np.asarray(p0, float)

    # levenberg_marquardt asks for the Jacobian at the point of the residual
    # just before, so the lines there are kept for it.
    last = {"p": None, "lines": None}

    def residual(p):
        lines = _lines(x, p, n_peaks, sigma_g)
        last.update(p=p.copy(), lines=lines)
        return sum((a * f.real for a, (f, _) in zip(p[3::3], lines)), p[0]) - y

    def jacobian(p):
        lines = last["lines"] if np.array_equal(p, last["p"]) else None
        return _peaks_jacobian(x, p, n_peaks, sigma_g, lines)

    sol, cov, info = levenberg_marquardt(residual, p0, jacobian=jacobian)
    sol[2::3] = np.abs(sol[2::3])
    areas = sol[3::3]
    total = areas.sum()
    derived = {"gaussian_fwhm": gaussian_fwhm}
    for k in range(n_peaks):
        derived[f"area_fraction_{k + 1}"] = float(areas[k] / total) if total else float("nan")
    return _result(names, sol, cov, info, derived)


# ---------------------------------------------------------------------------
# anti-crossing
# ---------------------------------------------------------------------------

def _branch_wavelengths(dl_nm, g, lambda_x, gamma_x, gamma_m):
    """Model (short, long) polariton wavelengths at each wavelength detuning."""
    blue, red, _, _ = polariton._complex_eigenvalues(
        lambda_x - dl_nm, detuning_to_frequency(dl_nm, lambda_x),
        abs(g), abs(gamma_x), abs(gamma_m))
    return SPEED_OF_LIGHT_NM_GHZ / blue.real, SPEED_OF_LIGHT_NM_GHZ / red.real


def fit_anticrossing(dl_nm: np.ndarray, lambda_nm: np.ndarray,
                     init: dict | None = None, fit_offset: bool = False) -> FitResult:
    """Fit measured polariton wavelengths versus detuning.

    ``dl_nm``/``lambda_nm`` hold one row per measured peak (several peaks may
    share a detuning).  Free parameters: the coupling ``g_GHz`` and the
    exciton wavelength anchor ``lambda_x_nm`` that calibrates the cavity
    position lambda_m = lambda_x - dl.  The linewidths entering the complex
    splitting are held at ``init["gamma_x_GHz"]`` and ``init["gamma_m_GHz"]``,
    its only keys (default 8.5 and 24.1 GHz): peak positions barely constrain
    them, and they are measured independently from the far-detuned spectra.
    ``fit_offset`` adds a global shift of the detuning axis (off by
    default).  Points are assigned to a branch once, at the initial
    parameters, choosing by wavelength ordering at the largest detuning.
    """
    dl = np.asarray(dl_nm, float)
    lam = np.asarray(lambda_nm, float)
    if dl.size != lam.size or dl.size < 6:
        raise ValueError("need at least 6 (detuning, wavelength) points")
    if np.ptp(dl) <= 0:
        raise ValueError("all points at a single detuning cannot constrain a crossing")
    init = _checked_init(init, ("gamma_x_GHz", "gamma_m_GHz"))
    lambda_x0 = float(np.median(lam))
    gx = abs(init.get("gamma_x_GHz", 8.5))
    gm = abs(init.get("gamma_m_GHz", 24.1))
    # Smallest observed gap between simultaneous peaks, as frequency.
    gaps = []
    for d in np.unique(dl):
        ls = np.sort(lam[dl == d])
        if ls.size >= 2:
            gaps.append(detuning_to_frequency(ls[-1] - ls[0], lambda_x0))
    g0 = 0.5 * min(gaps) if gaps else 10.0
    names = ["g_GHz", "lambda_x_nm"]
    p0 = [g0, lambda_x0]
    if fit_offset:
        names.append("dl_offset_nm")
        p0.append(0.0)
    p0 = np.asarray(p0, float)

    blue0, red0 = _branch_wavelengths(dl, g0, lambda_x0, gx, gm)
    on_blue = np.abs(lam - blue0) <= np.abs(lam - red0)
    if on_blue.all() or (~on_blue).all():
        raise ValueError("data lie entirely on one polariton branch")

    def residual(p):
        shift = p[-1] if fit_offset else 0.0
        blue, red = _branch_wavelengths(dl + shift, p[0], p[1], gx, gm)
        return np.where(on_blue, lam - blue, lam - red)

    sol, cov, info = levenberg_marquardt(residual, p0)
    sol[0] = abs(sol[0])
    g, lx = sol[:2]
    derived = {"gamma_x_GHz": gx, "gamma_m_GHz": gm}
    try:
        split_GHz, split_nm = polariton.rabi_splitting(SystemParams(
            lambda_x_nm=lx, lambda_m_nm=lx, g_GHz=g,
            gamma_x_GHz=gx, gamma_m_GHz=gm, gamma_b_GHz=0.0))
        derived.update(min_splitting_GHz=split_GHz, min_splitting_nm=split_nm)
    except polariton.WeakCouplingError:
        derived.update(min_splitting_GHz=float("nan"), min_splitting_nm=float("nan"))
    return _result(names, sol, cov, info, derived)


# ---------------------------------------------------------------------------
# lifetime versus detuning
# ---------------------------------------------------------------------------

def fit_lifetime_curve(dl_nm: np.ndarray, tau_ns: np.ndarray,
                       gamma_m_GHz: float, lambda_ref_nm: float) -> FitResult:
    """Fit the Lorentzian lifetime-versus-detuning law for g and gamma_b.

    The model is 1/(2 pi tau) = gamma_b + gamma_m g^2/(dw^2 + (gamma_m/2)^2);
    the cavity linewidth is held fixed (it is measured independently).  The
    law holds for gamma_x << gamma_m; pass gamma_m + gamma_x as
    ``gamma_m_GHz`` for lifetimes from a master equation with dephasing.
    Residuals are relative, (model - tau)/tau, reflecting a constant
    fractional error on lifetimes spanning orders of magnitude.
    """
    dl = np.asarray(dl_nm, float)
    tau = np.asarray(tau_ns, float)
    if dl.size != tau.size or dl.size < 3:
        raise ValueError("need at least 3 (detuning, lifetime) points")
    if np.unique(np.abs(dl)).size < 2:
        raise ValueError("all points at the same |detuning| cannot constrain g")
    if np.any(tau <= 0):
        raise ValueError("lifetimes must be positive")
    w = 1.0 / tau
    dw = detuning_to_frequency(dl, lambda_ref_nm)
    denom = dw**2 + (gamma_m_GHz / 2.0) ** 2
    gamma_b0 = 1.0 / (2.0 * math.pi * float(np.max(tau)))
    i = int(np.argmin(tau))
    excess = max(1.0 / (2.0 * math.pi * tau[i]) - gamma_b0, 1e-6)
    g0 = math.sqrt(excess * denom[i] / gamma_m_GHz)

    def model(p):
        g, gb = p
        return 1.0 / (2.0 * math.pi * (abs(gb) + gamma_m_GHz * g * g / denom))

    def residual(p):
        return (model(p) - tau) * w

    def jacobian(p):
        g, gb = p
        gtot = abs(gb) + gamma_m_GHz * g * g / denom
        base = -1.0 / (2.0 * math.pi * gtot**2)
        jac = np.empty((dl.size, 2))
        jac[:, 0] = base * (2.0 * gamma_m_GHz * g / denom) * w
        jac[:, 1] = base * math.copysign(1.0, gb) * w
        return jac

    sol, cov, info = levenberg_marquardt(residual, np.array([g0, gamma_b0]), jacobian=jacobian)
    sol = np.abs(sol)
    return _result(["g_GHz", "gamma_b_GHz"], sol, cov, info)


# ---------------------------------------------------------------------------
# exponential decays (Poisson maximum likelihood)
# ---------------------------------------------------------------------------

def _decay_kernel(t, tau, t0, sigma, grad=False):
    """Exponential decay starting at t0, optionally Gaussian-blurred.

    With ``grad`` returns (K, dK/dtau, dK/dt0).  The kernel uses |tau|, so
    dK/dtau carries sign(tau); with blur, dK/dt0 = K/tau - G and
    dK/dtau = K (u/tau^2 - sigma^2/tau^3) + sigma^2 G / tau^2, where
    u = t - t0 and G is the unit-area Gaussian of width sigma at u.
    """
    sign = math.copysign(1.0, tau) if abs(tau) > 1e-9 else 0.0
    tau = max(abs(tau), 1e-9)
    u = t - t0
    if sigma <= 0:
        out = np.where(u >= 0, np.exp(-np.clip(u, 0, None) / tau), 0.0)
        if not grad:
            return out
        return out, sign * out * u / tau**2, out / tau
    arg = (sigma / tau - u / sigma) / math.sqrt(2.0)
    # Exponentially-modified Gaussian; log-form keeps the product stable.
    log_pre = sigma**2 / (2.0 * tau**2) - u / tau
    out = np.zeros_like(t)
    ok = arg < 25.0
    out[ok] = 0.5 * np.exp(log_pre[ok]) * erfc(arg[ok])
    if not grad:
        return out
    gauss = (np.where(ok, np.exp(-0.5 * (u / sigma) ** 2), 0.0)
             / (sigma * math.sqrt(2.0 * math.pi)))
    d_tau = out * (u / tau**2 - sigma**2 / tau**3) + sigma**2 * gauss / tau**2
    return out, sign * d_tau, out / tau - gauss


def fit_decay(h, model: str = "mono", irf_fwhm_ns: float | None = None,
              init: dict | None = None, fix_t0: float | None = None) -> FitResult:
    """Poisson maximum-likelihood fit of an exponential decay histogram.

    ``h`` is a :class:`~cavqed.hbt.Histogram` or a ``(centers, counts)``
    pair.  ``model`` is ``"mono"`` (amplitude, tau, t0, background) or
    ``"bi"`` (two amplitude/tau pairs).  Passing ``irf_fwhm_ns`` convolves
    the model with the known Gaussian instrument response, which removes the
    bias a finite detector IRF imprints on fast decays.  Amplitudes may be
    negative (recovery dips); the mean is floored just above zero so the
    likelihood stays defined.  ``init`` replaces data-derived start values by
    parameter name; ``fix_t0`` holds the onset, which is then no parameter.
    """
    if isinstance(h, Histogram):
        t, counts = h.centers_ns, np.asarray(h.counts, float)
    else:
        t, counts = np.asarray(h[0], float), np.asarray(h[1], float)
    if t.size < 10:
        raise ValueError("need at least 10 bins to fit a decay")
    sigma = (irf_fwhm_ns or 0.0) * FWHM_TO_SIGMA
    if model == "mono":
        names = ["amplitude", "tau_ns", "t0_ns", "background"]
    elif model == "bi":
        names = ["amplitude_1", "tau1_ns", "amplitude_2", "tau2_ns", "t0_ns", "background"]
    else:
        raise ValueError("model must be 'mono' or 'bi'")
    init = _checked_init(init, names)
    # Background: median of the lowest-decile bins, robust to slow decays
    # that never return to baseline inside the window.
    decile = max(t.size // 10, 3)
    b0 = max(float(np.median(np.sort(counts)[:decile])), 1e-3)
    i_peak = int(np.argmax(counts))
    t0_default = t[i_peak] - 2.0 * sigma if sigma > 0 else float(t[0])
    if fix_t0 is None and sigma == 0 and "t0_ns" not in init:
        # Without a response model the onset is degenerate with the
        # amplitude; pin it at the start of the data.
        fix_t0 = t0_default
    elif fix_t0 is not None and "t0_ns" in init:
        raise ValueError("init: t0_ns is held at fix_t0, so init may not set it")
    # Log-linear regression over the top decade above background seeds tau.
    tail = counts[i_peak:] - b0
    top = max(float(tail[0]), 1.0)
    pos = np.nonzero(tail > 0.1 * top)[0]
    if pos.size >= 3:
        tt = t[i_peak:][pos] - t[i_peak]
        slope = np.polyfit(tt, np.log(np.maximum(tail[pos], 1e-12)), 1)[0]
        tau0 = -1.0 / slope if slope < 0 else (t[-1] - t[0]) / 5.0
    else:
        tau0 = (t[-1] - t[0]) / 5.0
    tau0 = abs(tau0)
    a0 = float(counts[i_peak] - b0)
    start = {"amplitude": a0, "tau_ns": tau0, "amplitude_1": 0.7 * a0, "tau1_ns": tau0,
             "amplitude_2": 0.3 * a0, "tau2_ns": 3.0 * tau0,
             "t0_ns": t0_default if fix_t0 is None else fix_t0, "background": b0}
    start.update(init)
    full = np.array([start[name] for name in names], float)
    # A fixed onset is held out of the free parameters LM moves.
    free = np.array([fix_t0 is None or name != "t0_ns" for name in names])
    names = [name for name, f in zip(names, free) if f]

    floor = 1e-9

    def raw_mean(p, grad=False):
        """Model mean per bin; with ``grad`` also d(mean)/dp, one column per free name."""
        q = full.copy()
        q[free] = p
        # q is (amplitude, tau) pairs, then t0, then the background.
        mu, cols, d_t0 = q[-1], [], 0.0
        for a, tau in zip(q[:-2:2], q[1:-2:2]):
            if grad:
                k, k_tau, k_t0 = _decay_kernel(t, tau, q[-2], sigma, grad=True)
                cols += [k, a * k_tau]
                d_t0 = d_t0 + a * k_t0
            else:
                k = _decay_kernel(t, tau, q[-2], sigma)
            mu = mu + a * k
        if not grad:
            return mu
        return mu, np.column_stack(cols + [d_t0, np.ones_like(t)])[:, free]

    def deviance(mu):
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(counts > 0, counts * np.log(counts / mu), 0.0)
        return 2.0 * (term - (counts - mu))

    def residual(p):
        mu_raw = raw_mean(p)
        mu = np.maximum(mu_raw, floor)
        out = np.sign(counts - mu) * np.sqrt(np.maximum(deviance(mu), 0.0))
        # Negative model means are unphysical; the penalty keeps a gradient
        # alive where the likelihood floor alone would go flat.
        return np.concatenate([out, np.minimum(mu_raw - floor, 0.0)])

    def jacobian(p):
        mu_raw, d_mu = raw_mean(p, grad=True)
        mu = np.maximum(mu_raw, floor)
        # dr/dmu = sign(c - mu)(1 - c/mu)/sqrt(dev) = -|x|/sqrt(dev), x = 1 - c/mu.
        # Near c = mu the deviance cancels, so there use its expansion
        # -(1 - x/6)/sqrt(mu), whose x -> 0 limit is -1/sqrt(mu).
        x = 1.0 - counts / mu
        near = np.abs(x) < 1e-3
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(near, -(1.0 - x / 6.0) / np.sqrt(mu),
                             -np.abs(x) / np.sqrt(deviance(mu)))
        slope = np.where(mu_raw > floor, slope, 0.0)
        return np.concatenate([slope[:, None] * d_mu, (mu_raw < floor)[:, None] * d_mu])

    sol, cov, info = levenberg_marquardt(residual, full[free], jacobian=jacobian,
                                         n_data=t.size)
    for i, name in enumerate(names):
        if name.startswith("tau"):
            sol[i] = abs(sol[i])
    result = _result(names, sol, cov, info)
    if model == "bi":
        t1, t2 = result.params["tau1_ns"], result.params["tau2_ns"]
        if abs(t1 - t2) < 0.05 * 0.5 * (t1 + t2):
            result.message = (result.message +
                              "; degenerate bi-exponential: tau1 ~= tau2").lstrip("; ")
            result.derived["degenerate"] = True
    return result


# ---------------------------------------------------------------------------
# damped-mode extraction from uniformly sampled complex traces
# ---------------------------------------------------------------------------

def fit_damped_modes(values: np.ndarray, dt: float, n_modes: int):
    """Linear-prediction (Prony) estimate of damped complex modes.

    For data v[j] = sum_k c_k exp(s_k * j * dt) returns the continuous-time
    ``s_k`` (rad/ns if dt is ns) sorted by imaginary part.  Exact for
    noise-free traces with at least ``2 n_modes`` samples; intended for
    extracting oscillation frequencies and decay rates from regression
    correlation traces.
    """
    v = np.asarray(values)
    if v.size < 2 * n_modes + 1:
        raise ValueError("too few samples for the requested mode count")
    cols = [v[n_modes - m: v.size - m] for m in range(1, n_modes + 1)]
    a, *_ = np.linalg.lstsq(np.stack(cols, axis=1), -v[n_modes:], rcond=None)
    roots = np.roots(np.concatenate([[1.0], a]))
    s = np.log(roots) / dt
    return s[np.argsort(s.imag)]
