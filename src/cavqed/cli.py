"""Command-line front end: experiment recipes and bit-stable CSV output.

Subcommands mirror the measurement pipelines: ``spectrum`` (single detuning,
analytic / master-equation / spectral-diffusion), ``anticross`` and
``lifetime`` (detuning sweeps), ``g2`` (regression or trajectory-sampled
correlations, CW or pulsed), and ``fit`` (the four analysis models applied
to emitted CSV files).

Configuration lives in one JSON file with sections mirroring the config
dataclasses; any value can be overridden from the command line with
``--set section.key=value``.  Exit codes: 0 success, 2 configuration or
usage error, 3 numerical failure.  Every stochastic command requires a
seed.  A CW trajectory ``g2`` simulates one emitter for ``--duration-ns``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import __version__, dynamics, fitkit, hbt, instrument, specdiff, trajectories
from .csvio import config_hash, read_csv, write_csv
from .instrument import InstrumentConfig
from .polariton import (
    Spectrum,
    SystemParams,
    eigenmodes,
    purcell_lifetime,
    spectral_function,
)
from .specdiff import TelegraphConfig
from .trajectories import PulseConfig
from .units import Detuning, wavelength_to_frequency

__all__ = ["main", "RunConfig", "ConfigError"]

EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC = 0, 2, 3


class ConfigError(ValueError):
    """Bad configuration file, flag value, or input data layout."""


@dataclass
class RunConfig:
    """All sub-configurations plus the seed; ``--out``/``--out-prefix`` name the files.

    ``from_dict`` raises :class:`ConfigError` on an unknown key or a seed outside [0, 2**63).
    """

    system: SystemParams = field(default_factory=SystemParams)
    instrument: InstrumentConfig = field(default_factory=InstrumentConfig)
    pulses: PulseConfig = field(default_factory=PulseConfig)
    telegraph: TelegraphConfig = field(default_factory=TelegraphConfig)
    seed: int | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        seed = data.get("seed")
        if seed is not None and not (type(seed) is int and 0 <= seed < 2**63):
            raise ConfigError(f"seed must be an integer in [0, 2**63), got {seed!r}")
        try:
            return cls(
                system=SystemParams(**data.get("system", {})),
                instrument=InstrumentConfig(**data.get("instrument", {})),
                pulses=PulseConfig(**data.get("pulses", {})),
                telegraph=TelegraphConfig(**data.get("telegraph", {})),
                seed=seed,
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return asdict(self)

    def hash(self) -> str:
        return config_hash(self.to_dict())


def _apply_overrides(data: dict, assignments: list[str]) -> dict:
    for item in assignments:
        if "=" not in item:
            raise ConfigError(f"--set needs section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        keys = dotted.strip().split(".")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = data
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"--set {dotted}: {key!r} is not a section")
        node[keys[-1]] = value
    return data


def load_config(args) -> RunConfig:
    data: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    data = _apply_overrides(data, args.set or [])
    if getattr(args, "seed", None) is not None:
        data["seed"] = args.seed
    return RunConfig.from_dict(data)


def _require_seed(cfg: RunConfig) -> int:
    if cfg.seed is None:
        raise ConfigError("this command is stochastic: set a seed "
                          "(--seed or \"seed\" in the config)")
    return cfg.seed


def _meta(cfg: RunConfig, command: str, **extra) -> dict:
    meta = {"cavqed": __version__, "config_hash": cfg.hash(),
            "seed": cfg.seed if cfg.seed is not None else "none",
            "command": command}
    meta.update(extra)
    return meta


def _detuning(cfg: RunConfig, dl_nm: float) -> Detuning:
    return Detuning.from_nm(dl_nm, cfg.system.lambda_m_nm)


def _wavelength_grid_spectrum(spec: Spectrum, step_nm: float) -> Spectrum:
    """Resample a spectrum onto a uniform wavelength grid for convolution."""
    sw = spec.to_wavelength()
    lam = np.arange(sw.axis[0], sw.axis[-1], step_nm)
    comps = {k: np.interp(lam, sw.axis, v) for k, v in sw.components.items()}
    return Spectrum(lam, np.interp(lam, sw.axis, sw.intensity),
                    "wavelength_nm", comps)


# ---------------------------------------------------------------------------
# spectrum
# ---------------------------------------------------------------------------

def cmd_spectrum(args) -> int:
    cfg = load_config(args)
    det = _detuning(cfg, args.detuning_nm)
    p = cfg.system.with_detuning(det)
    modes = eigenmodes(p, det)
    lines = [modes.omega_minus_GHz, modes.omega_plus_GHz, p.omega_m_GHz]
    pad = 8.0 * max(p.gamma_m_GHz, p.gamma_x_GHz)
    grid = np.linspace(min(lines) - pad, max(lines) + pad, args.points)
    if args.mode == "analytic":
        spec = spectral_function(grid, p, det)
    elif args.mode == "master":
        spec = dynamics.emission_spectrum(p, det, grid)
    elif args.mode == "diffused":
        spec = specdiff.averaged_spectrum(p, det, cfg.telegraph, grid,
                                          mode="master" if not args.fast else "fast")
    else:
        raise ConfigError(f"unknown spectrum mode {args.mode}")
    step_nm = max(cfg.instrument.spectral_resolution_pm * 1e-3 / 8.0, 1e-5)
    spec = _wavelength_grid_spectrum(spec, step_nm)
    if not args.no_instrument:
        spec = instrument.convolve_spectrum(spec, cfg.instrument)
    columns = {"wavelength_nm": spec.axis, "intensity": spec.intensity}
    for name, values in spec.components.items():
        columns[f"component_{name}"] = values
    write_csv(args.out, columns,
              _meta(cfg, "spectrum", mode=args.mode, detuning_nm=args.detuning_nm,
                    instrument="off" if args.no_instrument else "on"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _sweep_values(args) -> np.ndarray:
    if args.steps < 1:
        raise ConfigError("sweep needs at least 1 step")
    return np.linspace(args.dl_start, args.dl_end, args.steps)


def _params_at(cfg: RunConfig, dl: float) -> tuple[SystemParams, Detuning]:
    """Paper-style sweep point: exciton fixed, cavity stepped to lambda_x - dl."""
    p = replace(cfg.system, lambda_m_nm=cfg.system.lambda_x_nm - dl)
    return p, Detuning.from_nm(dl, cfg.system.lambda_x_nm)


def cmd_anticross(args) -> int:
    cfg = load_config(args)
    rows_blue, rows_red = [], []
    dls = _sweep_values(args)
    for dl in dls:
        p, det = _params_at(cfg, dl)
        modes = eigenmodes(p, det)
        pad = 6.0 * max(p.gamma_m_GHz, p.gamma_x_GHz)
        grid = np.linspace(modes.omega_minus_GHz - pad,
                           modes.omega_plus_GHz + pad, args.points)
        if args.mode == "master":
            spec = dynamics.emission_spectrum(p, det, grid)
        else:
            spec = spectral_function(grid, p, det)
        peaks = fitkit.peak_locations(spec.axis, spec.intensity, 2)
        rows_blue.append(wavelength_to_frequency(1.0) / peaks[1])
        rows_red.append(wavelength_to_frequency(1.0) / peaks[0])
    write_csv(args.out,
              {"dl_nm": dls, "lambda_blue_nm": np.array(rows_blue),
               "lambda_red_nm": np.array(rows_red)},
              _meta(cfg, "anticross", mode=args.mode,
                    lambda_x_nm=cfg.system.lambda_x_nm))
    return EXIT_OK


def _lifetime_point(cfg: RunConfig, dl: float, method: str, seed) -> float:
    p, det = _params_at(cfg, dl)
    if method == "formula":
        return purcell_lifetime(p, det).tau_ns
    pulses = cfg.pulses
    clicks = trajectories.run_pulsed(p, det, pulses, seed=seed)
    # Collected PL = both radiative channels; fit the folded decay curve.
    times = np.sort(np.concatenate([clicks.times("cavity_loss"),
                                    clicks.times("exciton_radiative")]))
    if times.size < 100:
        raise dynamics.NumericalError(
            f"only {times.size} clicks at detuning {dl} nm; increase n_pulses")
    merged = trajectories.ClickStream(
        times, np.zeros(times.size, dtype=np.int16), ("pl",),
        clicks.duration_ns)
    bin_ns = max(pulses.rep_period_ns / 2500.0, 2e-3)
    hist = trajectories.lifetime_from_clicks(merged, "pl",
                                             pulses.rep_period_ns, bin_ns=bin_ns)
    fit = fitkit.fit_decay(hist, "mono")
    tau = fit.params["tau_ns"]
    # The folded decay cannot tell a tau beyond the period from a flat background.
    if not (fit.converged and bin_ns < tau < pulses.rep_period_ns):
        raise dynamics.NumericalError(
            f"lifetime fit at detuning {dl} nm gave tau = {tau:.3g} ns ({fit.message}); "
            f"need a converged value between the bin width {bin_ns:.3g} ns "
            f"and the repetition period {pulses.rep_period_ns:.3g} ns")
    return tau


def cmd_lifetime(args) -> int:
    cfg = load_config(args)
    seed = _require_seed(cfg) if args.method == "trajectories" else cfg.seed
    dls = _sweep_values(args)
    taus = np.array([_lifetime_point(cfg, dl, args.method, seed) for dl in dls])
    write_csv(args.out, {"dl_nm": dls, "tau_ns": taus},
              _meta(cfg, "lifetime", method=args.method))
    return EXIT_OK


# ---------------------------------------------------------------------------
# g2
# ---------------------------------------------------------------------------

def _write_clicks(path, clicks: trajectories.ClickStream, meta: dict) -> None:
    labels = np.array(clicks.labels)[clicks.channel_codes]
    write_csv(path, {"channel": labels, "time_ns": clicks.times_ns}, meta)


def cmd_g2(args) -> int:
    cfg = load_config(args)
    det = _detuning(cfg, args.detuning_nm)
    p = cfg.system.with_detuning(det)
    if args.method == "regression":
        if args.pulsed:
            raise ConfigError("regression g2 is CW only; use --method trajectories")
        tau = np.arange(0.0, args.window_ns + args.bin_ns, args.bin_ns)
        if args.kind == "auto":
            trace = dynamics.g2_auto(p, det, tau)
        else:
            trace = dynamics.g2_cross(p, det, tau)
        write_csv(args.out_prefix + "_g2.csv",
                  {"tau_ns": trace.tau_ns, "g2": trace.values},
                  _meta(cfg, "g2", kind=args.kind, method="regression",
                        detuning_nm=args.detuning_nm))
        return EXIT_OK
    seed = _require_seed(cfg)
    if args.pulsed:
        clicks = trajectories.run_pulsed(p, det, cfg.pulses, seed=seed)
        duration = clicks.duration_ns
    else:
        clicks = trajectories.run_cw(p, det, args.duration_ns, seed)
        duration = args.duration_ns
    if args.instrument:
        clicks = instrument.jitter_and_thin(clicks, cfg.instrument, seed=seed + 1)
    _write_clicks(args.out_prefix + "_clicks.csv", clicks,
                  _meta(cfg, "g2", kind=args.kind, stage="clicks",
                        detuning_nm=args.detuning_nm))
    if args.kind == "auto":
        mode_times = clicks.times("cavity_loss")
        starts, stops = hbt.split_beam(mode_times, seed=seed + 2)
    else:
        starts, stops = clicks.times("exciton_radiative"), clicks.times("cavity_loss")
    if starts.size == 0 or stops.size == 0:
        raise dynamics.NumericalError("no clicks on one detector; nothing to correlate")
    hist = hbt.start_stop_histogram(starts, stops, bin_ns=args.bin_ns,
                                    window_ns=args.window_ns,
                                    estimator=args.estimator)
    if args.pulsed:
        period = cfg.pulses.rep_period_ns
        trace = hbt.normalize_g2(hist, mode="pulsed", rep_period_ns=period)
        report = hbt.pulsed_peak_areas(hist, period, period / 4.0)
        write_csv(args.out_prefix + "_peaks.csv",
                  {"peak_index": report.peak_offsets,
                   "offset_ns": report.peak_offsets * period,
                   "area": report.peak_areas},
                  _meta(cfg, "g2", stage="peak-areas",
                        central_ratio=report.ratio,
                        half_window_ns=report.half_window_ns))
    else:
        trace = hbt.normalize_g2(hist, duration_ns=duration, mode="cw")
    write_csv(args.out_prefix + "_histogram.csv",
              {"tau_ns": hist.centers_ns, "counts": hist.counts,
               "g2": trace.values},
              _meta(cfg, "g2", kind=args.kind, stage="histogram",
                    estimator=args.estimator, bin_ns=args.bin_ns,
                    n_starts=hist.n_starts, n_stops=hist.n_stops,
                    detuning_nm=args.detuning_nm))
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

# The columns each model reads: the layouts that `cavqed spectrum`,
# `anticross`, `lifetime` and `g2 --method trajectories` (histogram) write.
_FIT_COLUMNS = {
    "lorentz": ("wavelength_nm", "intensity"),
    "anticross": ("dl_nm", "lambda_blue_nm", "lambda_red_nm"),
    "lifetime": ("dl_nm", "tau_ns"),
    "decay": ("tau_ns", "counts"),
}


def _fit_from_csv(args, cfg: RunConfig) -> fitkit.FitResult:
    try:
        _, cols = read_csv(args.data)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read --data: {exc}") from exc
    need = _FIT_COLUMNS[args.model]
    if not all(c in cols for c in need):
        raise ConfigError(f"{args.model} fit needs the columns {','.join(need)}")
    if args.model == "lorentz":
        spec = Spectrum(cols["wavelength_nm"], cols["intensity"], "wavelength_nm")
        return fitkit.fit_lorentzians(spec, args.n_peaks,
                                      gaussian_fwhm=args.gaussian_fwhm_nm)
    if args.model == "anticross":
        dl = np.concatenate([cols["dl_nm"], cols["dl_nm"]])
        lam = np.concatenate([cols["lambda_blue_nm"], cols["lambda_red_nm"]])
        init = {"gamma_x_GHz": cfg.system.gamma_x_GHz,
                "gamma_m_GHz": cfg.system.gamma_m_GHz}
        return fitkit.fit_anticrossing(dl, lam, init=init,
                                       fit_offset=args.fit_offset)
    if args.model == "lifetime":
        # `cavqed lifetime` holds the exciton fixed, so dl converts at lambda_x.
        return fitkit.fit_lifetime_curve(cols["dl_nm"], cols["tau_ns"],
                                         gamma_m_GHz=cfg.system.gamma_m_GHz,
                                         lambda_ref_nm=cfg.system.lambda_x_nm)
    irf = args.irf_ps * 1e-3 if args.irf_ps else None
    return fitkit.fit_decay((cols["tau_ns"], cols["counts"]),
                            "bi" if args.bi else "mono", irf_fwhm_ns=irf)


def cmd_fit(args) -> int:
    cfg = load_config(args)
    try:
        result = _fit_from_csv(args, cfg)
    except fitkit.FitError as exc:
        raise dynamics.NumericalError(str(exc)) from exc
    names = list(result.params)
    write_csv(args.out,
              {"param": np.array(names),
               "value": np.array([result.params[n] for n in names]),
               "stderr": np.array([result.stderr[n] for n in names])},
              _meta(cfg, "fit", model=args.model, data=os.path.basename(args.data),
                    converged=result.converged, residual_norm=result.residual_norm,
                    n_iterations=result.n_iterations,
                    **{f"derived_{k}": v for k, v in result.derived.items()
                       if isinstance(v, (int, float, bool))}))
    if not result.converged:
        print(f"fit did not converge: {result.message}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavqed",
        description="Coupled quantum dot-nanocavity simulator and analysis toolkit")
    parser.add_argument("--version", action="version", version=f"cavqed {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="JSON configuration file")
        sp.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                        help="override a config value (repeatable)")
        sp.add_argument("--seed", type=int, help="random seed override")

    sp = sub.add_parser("spectrum", help="emission spectrum at one detuning")
    common(sp)
    sp.add_argument("--detuning-nm", type=float, default=0.0)
    sp.add_argument("--mode", choices=["analytic", "master", "diffused"],
                    default="analytic")
    sp.add_argument("--fast", action="store_true",
                    help="diffused mode: closed-form regime spectra")
    sp.add_argument("--points", type=int, default=4001)
    sp.add_argument("--no-instrument", action="store_true",
                    help="skip the spectrometer convolution")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("anticross", help="polariton wavelengths across a detuning sweep")
    common(sp)
    sp.add_argument("--dl-start", type=float, required=True)
    sp.add_argument("--dl-end", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--mode", choices=["analytic", "master"], default="analytic")
    sp.add_argument("--points", type=int, default=2001)
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_anticross)

    sp = sub.add_parser("lifetime", help="exciton lifetime across a detuning sweep")
    common(sp)
    sp.add_argument("--dl-start", type=float, required=True)
    sp.add_argument("--dl-end", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    sp.add_argument("--method", choices=["formula", "trajectories"],
                    default="formula")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_lifetime)

    sp = sub.add_parser("g2", help="intensity correlations")
    common(sp)
    sp.add_argument("--kind", choices=["auto", "cross"], default="auto")
    sp.add_argument("--method", choices=["regression", "trajectories"],
                    default="regression")
    sp.add_argument("--pulsed", action="store_true")
    sp.add_argument("--detuning-nm", type=float, default=0.0)
    sp.add_argument("--duration-ns", type=float, default=1e6,
                    help="CW acquisition length of the one emitter (trajectories)")
    sp.add_argument("--window-ns", type=float, default=100.0)
    sp.add_argument("--bin-ns", type=float, default=0.25)
    sp.add_argument("--estimator", choices=["all-pairs", "start-stop"],
                    default="all-pairs")
    sp.add_argument("--instrument", action="store_true",
                    help="apply detector jitter and efficiency to the clicks")
    sp.add_argument("--out-prefix", required=True)
    sp.set_defaults(func=cmd_g2)

    sp = sub.add_parser("fit", help="fit a model to an emitted CSV file")
    common(sp)
    sp.add_argument("--model", choices=list(_FIT_COLUMNS), required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--n-peaks", type=int, default=3)
    sp.add_argument("--gaussian-fwhm-nm", type=float, default=0.0,
                    help="lorentz fit: deconvolve this Gaussian response")
    sp.add_argument("--irf-ps", type=float, default=None,
                    help="decay fit: deconvolve this detector IRF")
    sp.add_argument("--bi", action="store_true", help="bi-exponential decay")
    sp.add_argument("--fit-offset", action="store_true",
                    help="anticross: free global detuning offset")
    sp.add_argument("--out", required=True)
    sp.set_defaults(func=cmd_fit)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (dynamics.NumericalError, fitkit.FitError, ValueError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
