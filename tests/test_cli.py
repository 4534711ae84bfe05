import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from cavqed import csvio, dynamics, fitkit, trajectories
from cavqed.cli import main
from cavqed.csvio import read_csv, write_csv
from cavqed.instrument import InstrumentConfig
from cavqed.polariton import SystemParams
from cavqed.specdiff import TelegraphConfig
from cavqed.trajectories import PulseConfig
from cavqed.units import Detuning


def run(args):
    return main([str(a) for a in args])


def test_spectrum_analytic_doublet(tmp_path):
    out = tmp_path / "spec.csv"
    assert run(["spectrum", "--mode", "analytic", "--detuning-nm", "0",
                "--out", out]) == 0
    meta, cols = read_csv(out)
    assert meta["cavqed"] and meta["config_hash"] and "seed" in meta
    lam, inten = cols["wavelength_nm"], cols["intensity"]
    interior = (inten[1:-1] > inten[:-2]) & (inten[1:-1] >= inten[2:])
    peaks = lam[1:-1][interior & (inten[1:-1] > 0.3)]
    assert peaks.size == 2
    assert peaks[1] - peaks[0] == pytest.approx(0.107, abs=0.004)


def test_spectrum_diffused_triplet(tmp_path):
    out = tmp_path / "triplet.csv"
    assert run(["spectrum", "--mode", "diffused", "--fast", "--detuning-nm", "0",
                "--set", "telegraph.detuned_offset_GHz=-1500",
                "--set", "system.transfer_GHz=0.05", "--out", out]) == 0
    _, cols = read_csv(out)
    assert "component_resonant" in cols and "component_detuned" in cols
    inten = cols["intensity"]
    interior = (inten[1:-1] > inten[:-2]) & (inten[1:-1] >= inten[2:])
    peaks = cols["wavelength_nm"][1:-1][interior
                                        & (inten[1:-1] > 0.25 * inten.max())]
    assert peaks.size == 3


def test_fit_lorentz_on_diffused_triplet(tmp_path):
    # the three smoothed maxima lie 0.042-0.047 nm apart on a 1.25 nm grid
    data = tmp_path / "triplet.csv"
    assert run(["spectrum", "--mode", "diffused", "--fast", "--detuning-nm", "0",
                "--set", "system.transfer_GHz=0.05",
                "--set", "telegraph.detuned_offset_GHz=-1500", "--out", data]) == 0
    meta, params = _fit(tmp_path, data, "--model", "lorentz", "--gaussian-fwhm-nm", "0.021")
    centers = sorted((params[f"center_{k}"], k) for k in (1, 2, 3))
    k = centers[1][1]
    assert params[f"center_{k}"] == pytest.approx(942.4993, abs=0.001)
    # the 71 pm cavity line carries 1 - 0.55 of the area
    assert params[f"fwhm_{k}"] == pytest.approx(0.0716, abs=0.001)
    assert float(meta[f"derived_area_fraction_{k}"]) == pytest.approx(0.45, abs=0.01)


def test_spectrum_master_detuned_cavity_line(tmp_path):
    out = tmp_path / "master.csv"
    assert run(["spectrum", "--mode", "master", "--detuning-nm", "4.1",
                "--set", "system.transfer_GHz=0.05",
                "--set", "system.n_max=2", "--out", out]) == 0
    _, cols = read_csv(out)
    lam, inten = cols["wavelength_nm"], cols["intensity"]
    # a bright feature at the bare cavity wavelength despite the detuned exciton
    assert abs(lam[np.argmax(inten)] - 942.5) < 0.02


def test_float_formatting_nine_digits(tmp_path):
    out = tmp_path / "fmt.csv"
    write_csv(out, {"x": np.array([1 / 3, 2e-13, 123456789.123])}, {"k": 1.5})
    text = out.read_text()
    assert "# k=1.5" in text
    assert "0.333333333" in text
    for token in re.findall(r"[\d.]+e?[-+]?\d*", text.splitlines()[-1]):
        digits = re.sub(r"[^\d]", "", token).lstrip("0")
        assert len(digits) <= 9


def test_columns_format_as_cells(tmp_path):
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 1e-300, 5e-324, 1 / 3,
                        123456789.123, 2.0**60])
    columns = {
        "f64": special,
        "f32": special.astype(np.float32),
        "int": np.array([0, -1, 2**62, 7, -(2**40), 3, 1, 2, 9]),
        "uint8": np.arange(9, dtype=np.uint8),
        "bool": np.arange(9) % 2 == 0,
        "str": np.array(["cavity_loss", "pl", "x y", "", "nan", "1e5", "a", "b", "c"]),
        "obj": np.array([1, 2.5, "s", True, np.float32(0.1), None, -0.0, np.int8(3),
                         np.nan], dtype=object),
    }
    meta = {"k": 1.5, "flag": True, "n": np.int64(4), "s": "x"}
    out = tmp_path / "cols.csv"
    write_csv(out, columns, meta)
    arrays = list(columns.values())
    expected = ([f"# {k}={csvio._format_cell(v)}" for k, v in meta.items()]
                + [",".join(columns)]
                + [",".join(csvio._format_cell(a[i]) for a in arrays) for i in range(9)])
    assert out.read_bytes() == ("\n".join(expected) + "\n").encode()


_CELL_TEXT = st.text(st.characters(codec="utf-8", exclude_characters=",\n\r"), max_size=8)
# Each column's element strategy and the dtype its array takes.
_COLUMN_KINDS = {
    "f64": (st.floats(), np.float64),
    "f32": (st.floats(width=32), np.float32),
    "int": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "uint8": (st.integers(0, 255), np.uint8),
    "bool": (st.booleans(), bool),
    "str": (_CELL_TEXT, str),
    "obj": (st.one_of(st.integers(), st.floats(), _CELL_TEXT, st.booleans(), st.none(),
                      st.floats(width=32).map(np.float32),
                      st.integers(-128, 127).map(np.int8)), object),
}


@given(st.integers(0, 50).flatmap(lambda n: st.fixed_dictionaries(
    {name: st.lists(element, min_size=n, max_size=n)
     for name, (element, _) in _COLUMN_KINDS.items()})))
@example({name: [] for name in _COLUMN_KINDS})  # zero rows: the header line alone
def test_the_table_formats_as_cells(tmp_path_factory, values):
    columns = {name: np.array(values[name], dtype=dtype)
               for name, (_, dtype) in _COLUMN_KINDS.items()}
    out = tmp_path_factory.mktemp("table") / "t.csv"
    write_csv(out, columns, {})
    n = len(values["f64"])
    rows = [",".join(csvio._format_cell(a[i]) for a in columns.values()) for i in range(n)]
    assert out.read_bytes() == "".join(f"{line}\n" for line in [",".join(columns), *rows]).encode()


def test_ragged_row_names_file_and_line(tmp_path):
    data = tmp_path / "ragged.csv"
    data.write_text("# k=1\ndl_nm,tau_ns\n0.3,1.0\n0.5\n")
    with pytest.raises(ValueError, match=r"ragged\.csv:4"):
        read_csv(data)


def test_fit_unreadable_data_is_config_error(tmp_path, capsys):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("dl_nm,tau_ns\n0.3,1.0\n0.5\n0.7,2.0\n")
    for data in (tmp_path / "missing.csv", ragged):
        assert run(["fit", "--model", "lifetime", "--data", data,
                    "--out", tmp_path / "fit.csv"]) == 2
        assert "configuration error:" in capsys.readouterr().err


@pytest.mark.parametrize("model, columns", [
    ("lorentz", {"frequency_GHz": [1.0, 2.0, 3.0], "intensity": [0.0, 1.0, 0.0]}),
    ("anticross", {"dl_nm": [-0.1, 0.0, 0.1], "lambda_nm": [942.4, 942.5, 942.6]}),
    ("decay", {"time_ns": [0.0, 0.1, 0.2], "counts": [9, 5, 3]}),
], ids=["lorentz-frequency", "anticross-single-branch", "decay-time"])
def test_fit_layout_no_command_writes_exits_2(tmp_path, capsys, model, columns):
    data = tmp_path / "data.csv"
    write_csv(data, {k: np.array(v) for k, v in columns.items()}, {})
    assert run(["fit", "--model", model, "--data", data,
                "--out", tmp_path / "fit.csv"]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and f"{model} fit needs the columns" in err
    assert not (tmp_path / "fit.csv").exists()


@pytest.mark.parametrize("model, flags", [
    ("lorentz", ["--n-peaks", "5"]),
    ("lorentz", ["--n-peaks", "0"]),
    ("lorentz", ["--gaussian-fwhm-nm", "-0.021"]),
    ("decay", ["--irf-ps", "-70"]),
], ids=["n-peaks-5", "n-peaks-0", "gaussian-fwhm-negative", "irf-negative"])
def test_fit_bad_flag_value_exits_2(tmp_path, capsys, model, flags):
    x = np.linspace(0.0, 10.0, 101)
    columns = ({"wavelength_nm": 942.0 + 0.01 * x, "intensity": 1.0 / (1.0 + (x - 5.0) ** 2)}
               if model == "lorentz" else {"tau_ns": x, "counts": 1e3 * np.exp(-x / 2.0)})
    data, out = tmp_path / "data.csv", tmp_path / "fit.csv"
    write_csv(data, columns, {})
    try:
        code = run(["fit", "--model", model, "--data", data, *flags, "--out", out])
    except SystemExit as exc:  # argparse refuses a value outside the choices
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err or "invalid choice" in err
    assert not out.exists()


@pytest.mark.parametrize("resolution_pm", ["300", "12000"])
def test_spectrum_response_wider_than_grid_exits_2(tmp_path, capsys, resolution_pm):
    assert run(["spectrum", "--set", f"instrument.spectral_resolution_pm={resolution_pm}",
                "--out", tmp_path / "s.csv"]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: instrument.spectral_resolution_pm = {resolution_pm}" in err
    assert "as wide as the" in err
    assert not list(tmp_path.iterdir())


def test_anticross_fit_round_trip(tmp_path):
    sweep = tmp_path / "anti.csv"
    fit_out = tmp_path / "anti_fit.csv"
    assert run(["anticross", "--dl-start", "-0.35", "--dl-end", "0.35",
                "--steps", "9", "--out", sweep]) == 0
    assert run(["fit", "--model", "anticross", "--data", sweep,
                "--out", fit_out]) == 0
    _, cols = read_csv(fit_out)
    g = dict(zip(cols["param"], cols["value"]))["g_GHz"]
    assert g == pytest.approx(18.4, rel=0.02)


@pytest.mark.parametrize("lambda_x_nm", [942.5, 946.6])
def test_lifetime_sweep_monotone_and_fit(tmp_path, lambda_x_nm):
    # The sweep holds the exciton at lambda_x; the fit must convert dl there too.
    system = ["--set", "system.g_GHz=20.7", "--set", f"system.lambda_x_nm={lambda_x_nm}"]
    sweep = tmp_path / "tau.csv"
    fit_out = tmp_path / "tau_fit.csv"
    assert run(["lifetime", "--dl-start", "0.3", "--dl-end", "4.1", "--steps", "7",
                *system, "--out", sweep]) == 0
    _, cols = read_csv(sweep)
    assert np.all(np.diff(cols["tau_ns"]) > 0)
    assert run(["fit", "--model", "lifetime", "--data", sweep,
                *system, "--out", fit_out]) == 0
    _, fcols = read_csv(fit_out)
    vals = dict(zip(fcols["param"], fcols["value"]))
    assert vals["g_GHz"] == pytest.approx(20.7, rel=1e-3)
    assert vals["gamma_b_GHz"] == pytest.approx(0.015, rel=1e-3)


def test_zero_step_sweep_rejected(tmp_path):
    assert run(["lifetime", "--dl-start", "0", "--dl-end", "1", "--steps", "0",
                "--out", tmp_path / "x.csv"]) == 2


def test_stochastic_commands_require_seed(tmp_path):
    assert run(["g2", "--method", "trajectories", "--detuning-nm", "4.1",
                "--out-prefix", tmp_path / "g"]) == 2


def test_bad_config_rejected(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"system": {"g_GHz": -3.0}}))
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "s.csv"]) == 2
    cfg.write_text("{not json")
    assert run(["spectrum", "--config", cfg, "--out", tmp_path / "s.csv"]) == 2


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": {"g_GHz": 10.0}, "seed": 7}))
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--config", cfg, "--set", "system.g_GHz=18.4",
                "--out", out]) == 0
    meta, cols = read_csv(out)
    assert meta["seed"] == "7"


def test_g2_regression_cross(tmp_path):
    prefix = tmp_path / "gr"
    assert run(["g2", "--kind", "cross", "--method", "regression",
                "--detuning-nm", "4.1", "--window-ns", "20", "--bin-ns", "0.5",
                "--set", "system.lambda_x_nm=946.6",
                "--set", "system.emitter_levels=3",
                "--set", "system.gamma_x_GHz=0.015",
                "--set", "system.pump_GHz=0.002",
                "--set", "system.feeder_pump_GHz=0.01",
                "--set", "system.feeder_decay_GHz=0.1224",
                "--set", "system.n_max=1",
                "--out-prefix", prefix]) == 0
    _, cols = read_csv(str(prefix) + "_g2.csv")
    tau, g2 = cols["tau_ns"], cols["g2"]
    assert g2[np.argmin(np.abs(tau))] < 0.2
    assert g2[-1] > 0.7


@pytest.mark.parametrize("flags", [
    ["--method", "regression", "--bin-ns", "0"],
    ["--method", "trajectories", "--duration-ns", "-5"],
    ["--method", "trajectories", "--window-ns", "-1"],
    ["--method", "trajectories", "--bin-ns", "0"],
    ["--method", "regression", "--window-ns", "1e13"],
    ["--method", "trajectories", "--duration-ns", "2000", "--window-ns", "1e12"],
], ids=["regression-bin-0", "duration-negative", "window-negative", "bin-0",
        "regression-bins-over-ceiling", "trajectories-bins-over-ceiling"])
def test_g2_bad_flag_value_exits_2(tmp_path, capsys, flags):
    assert run(["g2", "--seed", "3", *flags, "--out-prefix", tmp_path / "g"]) == 2
    assert "configuration error: g2 needs" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("assignment", [
    "pulses.n_pulses=1.5", "system.n_max=2.5", "system.emitter_levels=2.0",
    'telegraph.detuned_offset_GHz="x"', "pulses.n_pulses=true", 'system.g_GHz="abc"',
])
def test_config_value_of_wrong_type_exits_2(tmp_path, capsys, assignment):
    key = assignment.split("=")[0]
    assert run(["spectrum", "--mode", "analytic", "--detuning-nm", "0",
                "--set", assignment, "--out", tmp_path / "s.csv"]) == 2
    assert f"configuration error: {key} must be" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["lifetime", "--dl-start", "0", "--dl-end", "4.1", "--steps", "3",
     "--set", "system.g_GHz=NaN"],
    ["lifetime", "--dl-start", "0", "--dl-end", "4.1", "--steps", "3",
     "--set", "system.gamma_b_GHz=NaN"],
    ["lifetime", "--dl-start", "0", "--dl-end", "4.1", "--steps", "3",
     "--set", "system.gamma_m_GHz=Infinity"],
    ["spectrum", "--points", "-5"],
    ["spectrum", "--detuning-nm", "nan"],
    ["spectrum", "--mode", "diffused", "--set", "telegraph.detuned_offset_GHz=Infinity"],
], ids=["g-nan", "gamma-b-nan", "gamma-m-inf", "points-negative", "detuning-nan",
        "telegraph-offset-inf"])
def test_non_finite_or_too_few_points_exits_2(tmp_path, capsys, args):
    assert run([*args, "--out", tmp_path / "o.csv"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# Every float field of the four config sections, ``float | None`` ones too.
_FLOAT_FIELDS = [(cls, f.name) for cls in (SystemParams, PulseConfig, InstrumentConfig,
                                           TelegraphConfig)
                 for f in fields(cls) if "float" in f.type]


@pytest.mark.parametrize("cls,name", _FLOAT_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _FLOAT_FIELDS])
def test_config_dataclasses_reject_nan(cls, name):
    # The dataclasses are the only finiteness guard of a config value.
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            cls(**{name: value})


def test_trajectory_zero_norm_exits_numeric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(trajectories._Engine, "click_weights",
                        lambda self, x: np.zeros(len(trajectories.DETECTED)))
    assert run(["g2", "--kind", "auto", "--method", "trajectories",
                "--detuning-nm", "0", "--seed", "3", "--duration-ns", "100",
                "--out-prefix", tmp_path / "z"]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_isolated_feeder_level_named(tmp_path, capsys):
    # with both feeder rates at their default 0 nothing enters or leaves the
    # feeder level, so the steady state is not unique
    assert run(["spectrum", "--mode", "master", "--set", "system.emitter_levels=3",
                "--out", tmp_path / "s.csv"]) == 3
    err = capsys.readouterr().err
    assert "degenerate steady state" in err
    assert "feeder level is isolated" in err
    assert "feeder_pump_GHz = 0" in err and "feeder_decay_GHz = 0" in err


def test_lifetime_with_dark_exciton_channel(tmp_path):
    # at 2 nm the Purcell lifetime (8.9 ns) lies inside the 25 ns period
    assert run(["lifetime", "--dl-start", "2.0", "--dl-end", "2.1", "--steps", "2",
                "--method", "trajectories", "--seed", "7",
                "--set", "system.gamma_b_GHz=0", "--set", "pulses.n_pulses=1000",
                "--out", tmp_path / "t.csv"]) == 0


def _stub_run_pulsed(monkeypatch, folded_ns, period_ns=25.0):
    """Make ``run_pulsed`` return clicks with these folded times, one per pulse."""
    n = folded_ns.size
    times = np.arange(n) * period_ns + folded_ns
    stream = trajectories.ClickStream(times, np.zeros(n, np.int16),
                                      trajectories.DETECTED, n * period_ns)
    monkeypatch.setattr(trajectories, "run_pulsed", lambda *a, **k: stream)


def _lifetime_once(out, *extra):
    return run(["lifetime", "--dl-start", "1.0", "--dl-end", "1.0", "--steps", "1",
                "--method", "trajectories", "--seed", "3", *extra, "--out", out])


def test_lifetime_reads_folded_exponential(tmp_path, monkeypatch):
    # e^{-t/tau} folded onto the default 25 ns period, by inverse transform
    tau, period, n = 2.0, 25.0, 5000
    u = np.random.default_rng(5).random(n)
    _stub_run_pulsed(monkeypatch, -tau * np.log1p(u * math.expm1(-period / tau)))
    out = tmp_path / "t.csv"
    assert _lifetime_once(out) == 0
    _, cols = read_csv(out)
    assert abs(cols["tau_ns"][0] - tau) < 3 * tau / math.sqrt(n)


def test_lifetime_beyond_period_exits_3(tmp_path, monkeypatch, capsys):
    # Uniform folded times: a flat decay, so no finite lifetime fits.
    _stub_run_pulsed(monkeypatch, np.random.default_rng(6).uniform(0, 25.0, 5000))
    assert _lifetime_once(tmp_path / "t.csv") == 3
    err = capsys.readouterr().err
    assert "numerical failure:" in err and "repetition period 25 ns" in err
    assert not list(tmp_path.iterdir())


def test_lifetime_sparse_run_is_finite(tmp_path):
    # About 190 clicks: too few for a fine folded histogram to hold tau
    # against a free flat background.
    out = tmp_path / "t.csv"
    assert _lifetime_once(out, "--set", "system.gamma_b_GHz=0",
                          "--set", "pulses.n_pulses=300") == 0
    _, cols = read_csv(out)
    assert 1.0 < cols["tau_ns"][0] < 2.5


def test_cross_g2_with_dark_exciton_channel(tmp_path, capsys):
    assert run(["g2", "--kind", "cross", "--method", "trajectories",
                "--detuning-nm", "0", "--seed", "3", "--duration-ns", "200",
                "--set", "system.gamma_b_GHz=0",
                "--out-prefix", tmp_path / "x"]) == 3
    assert "no clicks on one detector" in capsys.readouterr().err


def test_g2_trajectories_byte_identical(tmp_path):
    args = ["g2", "--kind", "auto", "--method", "trajectories",
            "--detuning-nm", "4.1", "--seed", "31",
            "--duration-ns", "20000", "--window-ns", "20",
            "--set", "system.lambda_x_nm=946.6",
            "--set", "system.emitter_levels=3",
            "--set", "system.gamma_x_GHz=0.015",
            "--set", "system.pump_GHz=0.001",
            "--set", "system.feeder_pump_GHz=2.0",
            "--set", "system.feeder_decay_GHz=0.1224",
            "--set", "system.n_max=2"]
    p1, p2 = tmp_path / "a", tmp_path / "b"
    assert run(args + ["--out-prefix", p1]) == 0
    assert run(args + ["--out-prefix", p2]) == 0
    for suffix in ("_clicks.csv", "_histogram.csv"):
        b1 = (tmp_path / ("a" + suffix)).read_bytes()
        b2 = (tmp_path / ("b" + suffix)).read_bytes()
        assert b1 == b2 and len(b1) > 100


def test_g2_trajectories_cw_dip_matches_regression(tmp_path):
    # One emitter: K overlaid trajectories would read about 1 - 0.73/K here.
    system = {"lambda_x_nm": 946.6, "emitter_levels": 3, "gamma_x_GHz": 0.015,
              "pump_GHz": 0.001, "feeder_pump_GHz": 0.3,
              "feeder_decay_GHz": 0.1224, "n_max": 2}
    duration, bin_ns = 1e4, 0.25
    args = ["g2", "--kind", "auto", "--method", "trajectories",
            "--detuning-nm", "4.1", "--seed", "1", "--duration-ns", duration,
            "--bin-ns", bin_ns, "--window-ns", "20",
            "--out-prefix", tmp_path / "dip"]
    for key, value in system.items():
        args += ["--set", f"system.{key}={value}"]
    assert run(args) == 0
    meta, cols = read_csv(str(tmp_path / "dip_histogram.csv"))
    central = np.argsort(np.abs(cols["tau_ns"]))[:2]
    measured = float(np.mean(cols["g2"][central]))
    det = Detuning.from_nm(4.1, 942.5)
    tau = np.linspace(0.0, bin_ns, 101)
    exact = dynamics.g2_auto(SystemParams(**system).with_detuning(det), det, tau)
    expected = np.trapezoid(exact.values, tau) / bin_ns
    # Pair counts the two bins hold at g2 = 1, for a Poisson error on the dip.
    flat = 2 * int(meta["n_starts"]) * int(meta["n_stops"]) * bin_ns / duration
    assert abs(measured - expected) < 4.0 * math.sqrt(expected / flat)


def test_g2_pulsed_peak_report(tmp_path):
    prefix = tmp_path / "gp"
    assert run(["g2", "--kind", "auto", "--method", "trajectories", "--pulsed",
                "--detuning-nm", "0", "--seed", "5",
                "--set", "system.g_GHz=20.7", "--set", "system.pump_GHz=0",
                "--set", "system.n_max=3",
                "--set", "pulses.rep_rate_MHz=80",
                "--set", "pulses.n_pulses=4000",
                "--out-prefix", prefix]) == 0
    meta, cols = read_csv(str(prefix) + "_peaks.csv")
    assert float(meta["central_ratio"]) < 1.3
    assert cols["peak_index"].size >= 7


def test_lifetime_trajectories_endpoints(tmp_path):
    out = tmp_path / "tau_sim.csv"
    assert run(["lifetime", "--dl-start", "0", "--dl-end", "4.1", "--steps", "3",
                "--method", "trajectories", "--seed", "17",
                "--set", "system.g_GHz=20.7",
                "--set", "system.gamma_x_GHz=0.015",
                "--set", "system.n_max=3",
                "--set", "pulses.n_pulses=8000",
                "--set", "pulses.mean_captures_per_pulse=0.8",
                "--out", out]) == 0
    _, cols = read_csv(out)
    tau = cols["tau_ns"]
    assert np.all(np.diff(tau) > 0)
    # capture-limited at resonance, background-limited far detuned
    assert tau[0] == pytest.approx(0.060, rel=0.35)
    assert tau[-1] == pytest.approx(7.8, rel=0.2)


def test_decay_fit_command(tmp_path):
    rng = np.random.default_rng(3)
    times = rng.exponential(7.6, size=20000)
    edges = np.linspace(0, 40, 401)
    counts, _ = np.histogram(times, bins=edges)
    data = tmp_path / "decay.csv"
    write_csv(data, {"tau_ns": 0.5 * (edges[1:] + edges[:-1]),
                     "counts": counts}, {"kind": "decay"})
    out = tmp_path / "fit.csv"
    assert run(["fit", "--model", "decay", "--data", data, "--out", out]) == 0
    _, cols = read_csv(out)
    vals = dict(zip(cols["param"], cols["value"]))
    assert vals["tau_ns"] == pytest.approx(7.6, rel=0.05)


def test_sparse_fast_decay_fit_exits_zero(tmp_path, capsys):
    # Mostly empty bins; a fit ending at the iteration cap would exit 3.
    t = np.arange(0.05, 1.0, 0.01) + 0.005
    counts = np.random.default_rng(3).poisson(40 * np.exp(-(t - 0.05) / 0.07))
    data = tmp_path / "decay.csv"
    csvio.write_csv(data, {"tau_ns": t, "counts": counts}, {"kind": "decay"})
    out = tmp_path / "fit.csv"
    assert run(["fit", "--model", "decay", "--data", data, "--out", out]) == 0
    assert "did not converge" not in capsys.readouterr().err


@pytest.mark.parametrize("config", [{"seed": "abc"}, {"seed": -1}, {"seeed": 3},
                                    {"output_dir": "."}],
                         ids=["non-integer-seed", "negative-seed", "unknown-key",
                              "removed-output-dir"])
@pytest.mark.parametrize("source", ["set", "file"])
def test_bad_top_level_config_exits_2(tmp_path, capsys, config, source):
    (key, value), = config.items()
    if source == "set":
        args = ["--set", f"{key}={value}"]
    else:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        args = ["--config", tmp_path / "cfg.json"]
    assert run(["spectrum", *args, "--out", tmp_path / "s.csv"]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("text, extra", [
    ("[]", []), ('"abc"', []), ("5", []), ("[]", ["--seed", "3"]),
    ('{"system": 5}', ["--set", "system.g_GHz=1"]),
], ids=["list", "string", "number", "list-with-seed", "override-into-non-section"])
def test_non_object_config_exits_2(tmp_path, capsys, text, extra):
    (tmp_path / "cfg.json").write_text(text)
    args = ["spectrum", "--config", tmp_path / "cfg.json", *extra, "--out", tmp_path / "s.csv"]
    assert run(args) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not (tmp_path / "s.csv").exists()


PULSED_G2 = ["g2", "--kind", "auto", "--method", "trajectories", "--pulsed",
             "--detuning-nm", "0", "--seed", "5", "--set", "system.pump_GHz=0",
             "--set", "pulses.n_pulses=3000"]
ANTICROSS = ["anticross", "--dl-start", "-0.35", "--dl-end", "0.35", "--steps", "5"]


def _fit(tmp_path, data, *flags):
    """Run ``cavqed fit`` on ``data``; its metadata and fitted parameters."""
    out = tmp_path / "fit.csv"
    assert run(["fit", "--data", data, *flags, "--out", out]) == 0
    meta, cols = read_csv(out)
    return meta, dict(zip(cols["param"], cols["value"]))


def _doublet(tmp_path):
    data = tmp_path / "doublet.csv"
    assert run(["spectrum", "--detuning-nm", "0", "--out", data]) == 0
    return data


def _decay(tmp_path, taus):
    """Poisson counts of 2000 e^{-t/tau_1} + 1000 e^{-t/tau_2} + ... + 5 per 0.1 ns bin."""
    t = np.arange(0.05, 40.0, 0.1)
    mu = 5.0 + sum(2000.0 / (k + 1) * np.exp(-t / tau) for k, tau in enumerate(taus))
    data = tmp_path / "decay.csv"
    write_csv(data, {"tau_ns": t, "counts": np.random.default_rng(4).poisson(mu)},
              {"kind": "decay"})
    return data


def _fit_offset(tmp_path):
    data = tmp_path / "anti.csv"
    assert run([*ANTICROSS, "--out", data]) == 0
    _, params = _fit(tmp_path, data, "--model", "anticross", "--fit-offset")
    assert abs(params["dl_offset_nm"]) < 0.01
    assert params["g_GHz"] == pytest.approx(18.4, rel=0.02)


def _estimator_start_stop(tmp_path):
    assert run([*PULSED_G2, "--estimator", "start-stop", "--out-prefix", tmp_path / "p"]) == 0
    meta, _ = read_csv(str(tmp_path / "p_histogram.csv"))
    assert meta["estimator"] == "start-stop"


def _instrument(tmp_path):
    clicks = []
    for name, flags in (("ideal", []),
                        ("seen", ["--instrument", "--set", "instrument.efficiency=0.5"])):
        assert run([*PULSED_G2, *flags, "--out-prefix", tmp_path / name]) == 0
        clicks.append(read_csv(str(tmp_path / f"{name}_clicks.csv"))[1]["time_ns"].size)
    assert 0.45 < clicks[1] / clicks[0] < 0.55


def _no_instrument(tmp_path):
    # The spectrometer setting must not thin a spectrum it does not convolve:
    # at 12000 pm its step would leave one row.
    columns = []
    for resolution_pm in ("21", "12000"):
        out = tmp_path / f"s{resolution_pm}.csv"
        assert run(["spectrum", "--detuning-nm", "0", "--no-instrument", "--points", "301",
                    "--set", f"instrument.spectral_resolution_pm={resolution_pm}",
                    "--out", out]) == 0
        meta, cols = read_csv(out)
        assert meta["instrument"] == "off"
        columns.append(cols)
    lam = columns[0]["wavelength_nm"]
    assert lam.size == 301 and np.all(np.diff(lam) > 0)
    assert lam[0] < 942.5 < lam[-1]
    for name in columns[0]:
        assert np.array_equal(columns[0][name], columns[1][name])


def _points(tmp_path):
    blue = []
    for name, flags in (("fine", []), ("coarse", ["--points", "201"])):
        assert run([*ANTICROSS, *flags, "--out", tmp_path / f"{name}.csv"]) == 0
        blue.append(read_csv(tmp_path / f"{name}.csv")[1]["lambda_blue_nm"])
    assert not np.array_equal(blue[0], blue[1])
    assert blue[1] == pytest.approx(blue[0], abs=0.01)


def _n_peaks(tmp_path):
    _, params = _fit(tmp_path, _doublet(tmp_path), "--model", "lorentz", "--n-peaks", "2")
    assert "center_2" in params and "center_3" not in params
    assert params["center_2"] - params["center_1"] == pytest.approx(0.107, abs=0.004)


def _gaussian_fwhm_nm(tmp_path):
    meta, _ = _fit(tmp_path, _doublet(tmp_path), "--model", "lorentz", "--n-peaks", "2",
                   "--gaussian-fwhm-nm", "0.021")
    assert meta["derived_gaussian_fwhm"] == "0.021"


def _irf_ps(tmp_path):
    # With a response model the onset t0 is fitted; without one it is pinned.
    _, params = _fit(tmp_path, _decay(tmp_path, [1.5]), "--model", "decay", "--irf-ps", "70")
    assert "t0_ns" in params
    assert params["tau_ns"] == pytest.approx(1.5, rel=0.05)


def _bi(tmp_path):
    _, params = _fit(tmp_path, _decay(tmp_path, [1.5, 8.0]), "--model", "decay", "--bi")
    taus = sorted([params["tau1_ns"], params["tau2_ns"]])
    assert taus == pytest.approx([1.5, 8.0], rel=0.1)


@pytest.mark.parametrize("case", [_fit_offset, _estimator_start_stop, _instrument,
                                  _no_instrument, _points, _n_peaks, _gaussian_fwhm_nm,
                                  _irf_ps, _bi], ids=lambda case: case.__name__[1:])
def test_cli_flag_has_its_effect(tmp_path, case):
    case(tmp_path)


# Inputs that the library or the CLI refuses, the two flags a mode would ignore
# among them: each exits 2 with one line that says why, and writes nothing.
_REFUSED = {
    "cw-without-pump": ["g2", "--method", "trajectories", "--seed", "3",
                        "--duration-ns", "100", "--set", "system.pump_GHz=0"],
    "charged-state-near": ["spectrum", "--mode", "diffused",
                           "--set", "telegraph.detuned_offset_GHz=-10"],
    "lossless-cavity": ["lifetime", "--dl-start", "0", "--dl-end", "1", "--steps", "2",
                        "--set", "system.gamma_m_GHz=0"],
    "master-grid-too-coarse": ["spectrum", "--mode", "master", "--points", "3"],
    "pulsed-window-too-short": [*PULSED_G2[:-1], "pulses.n_pulses=200",
                                "--window-ns", "20"],
    "config-not-utf8": ["spectrum", "--config", "{inputs}/latin1.json"],
    "regression-instrument": ["g2", "--method", "regression", "--instrument"],
    "regression-duration": ["g2", "--method", "regression", "--duration-ns", "100"],
    "regression-estimator": ["g2", "--method", "regression", "--estimator", "start-stop"],
    "pulsed-duration": [*PULSED_G2, "--duration-ns", "100"],
    "fast-without-diffused": ["spectrum", "--fast"],
    "fit-lifetime-two-rows": ["fit", "--model", "lifetime", "--data", "{inputs}/tau2.csv"],
    "fit-lifetime-negative": ["fit", "--model", "lifetime", "--data",
                              "{inputs}/tau_negative.csv"],
    "fit-decay-three-bins": ["fit", "--model", "decay", "--data", "{inputs}/decay3.csv"],
    "fit-anticross-four-points": ["fit", "--model", "anticross", "--data",
                                  "{inputs}/anticross2.csv"],
    "fit-lorentz-four-samples": ["fit", "--model", "lorentz", "--data",
                                 "{inputs}/lorentz4.csv"],
    "anticross-four-samples": ["anticross", "--dl-start", "0", "--dl-end", "1",
                               "--steps", "2", "--points", "4"],
    "data-missing": ["fit", "--model", "lifetime", "--data", "{inputs}/missing.csv"],
    "config-missing": ["spectrum", "--config", "{inputs}/missing.json"],
    "out-parent-is-file": ["spectrum", "--points", "301", "--no-instrument",
                           "--out", "{inputs}/file/o.csv"],
    "out-is-directory": ["spectrum", "--points", "301", "--no-instrument",
                         "--out", "{inputs}/directory"],
    "g2-histogram-is-directory": ["g2", "--kind", "auto", "--method", "trajectories",
                                  "--seed", "1", "--duration-ns", "2000",
                                  "--out-prefix", "{inputs}/x"],
}
# The flag that the mode would ignore, which the one line must name.
_IGNORED_FLAG = {"regression-instrument": "--instrument", "regression-duration": "--duration-ns",
                 "regression-estimator": "--estimator", "pulsed-duration": "--duration-ns",
                 "fast-without-diffused": "--fast"}


def _refused_inputs(folder):
    """The files the refused commands read, and a file and a directory in the
    way of an ``--out``."""
    (folder / "latin1.json").write_bytes('{"seed": "\xe9"}'.encode("latin-1"))  # not UTF-8
    for name, columns in (
            ("tau2.csv", {"dl_nm": [0.0, 1.0], "tau_ns": [0.1, 1.0]}),
            ("tau_negative.csv", {"dl_nm": [0.0, 1.0, 2.0], "tau_ns": [0.1, -1.0, 3.0]}),
            ("decay3.csv", {"tau_ns": [0.0, 1.0, 2.0], "counts": [5.0, 3.0, 1.0]}),
            ("anticross2.csv", {"dl_nm": [0.0, 1.0], "lambda_blue_nm": [942.4, 942.3],
                                "lambda_red_nm": [942.6, 942.7]}),
            ("lorentz4.csv", {"wavelength_nm": [942.0, 942.1, 942.2, 942.3],
                              "intensity": [1.0, 2.0, 1.5, 1.0]})):
        write_csv(folder / name, {k: np.array(v) for k, v in columns.items()}, {})
    (folder / "file").write_text("")
    (folder / "directory").mkdir()
    (folder / "x_histogram.csv").mkdir()  # in the way of the last file a g2 writes
    return folder


def _outputs(args, tmp_path):
    """The output flag of the command in ``args``, naming a file in ``tmp_path``."""
    return ["--out-prefix", tmp_path / "o"] if args[0] == "g2" else ["--out", tmp_path / "o.csv"]


@pytest.mark.parametrize("name", list(_REFUSED))
def test_refused_input_exits_2_and_writes_nothing(tmp_path, tmp_path_factory, capsys, name):
    inputs = _refused_inputs(tmp_path_factory.mktemp("inputs"))
    before = sorted(inputs.rglob("*"))
    args = [a.format(inputs=inputs) for a in _REFUSED[name]]
    outputs = [] if {"--out", "--out-prefix"} & set(args) else _outputs(args, tmp_path)
    assert run([*args, *outputs]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: ")
    assert _IGNORED_FLAG.get(name, "") in err[0]
    assert not list(tmp_path.iterdir())
    assert sorted(inputs.rglob("*")) == before  # no temporary file beside an --out


def _decompose_fails(*args):
    raise np.linalg.LinAlgError("eigenvalues did not converge")


def _fit_stalls(*args, **kwargs):
    return fitkit.FitResult({"g_GHz": 20.0}, {"g_GHz": 1.0}, 1.0, 200, False,
                            "iteration limit")


@pytest.mark.parametrize("args, patch", [
    (["g2", "--kind", "cross", "--method", "trajectories", "--seed", "3",
      "--duration-ns", "200", "--set", "system.gamma_b_GHz=0"], None),
    (["spectrum", "--mode", "master"], (dynamics, "_decompose", _decompose_fails)),
    (["fit", "--model", "lifetime", "--data", "{data}"],
     (fitkit, "fit_lifetime_curve", _fit_stalls)),
    (["anticross", "--dl-start", "0", "--dl-end", "1", "--steps", "2",
      "--set", "system.g_GHz=1"], None),
], ids=["dark-exciton-cross", "linalg-error", "unconverged-fit", "weak-coupling-anticross"])
def test_numerical_failure_exits_3_and_writes_nothing(tmp_path, tmp_path_factory,
                                                      monkeypatch, capsys, args, patch):
    data = tmp_path_factory.mktemp("data") / "tau.csv"
    write_csv(data, {"dl_nm": np.array([0.0, 1.0, 2.0]),
                     "tau_ns": np.array([0.1, 1.0, 3.0])}, {})
    if patch:
        monkeypatch.setattr(*patch)
    args = [a.format(data=data) for a in args]
    assert run([*args, *_outputs(args, tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numerical failure: ")
    assert not list(tmp_path.iterdir())
