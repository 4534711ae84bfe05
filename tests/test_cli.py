import json
import math
import re

import numpy as np
import pytest

from cavqed import csvio, dynamics, fitkit, trajectories
from cavqed.cli import main
from cavqed.csvio import read_csv, write_csv
from cavqed.polariton import SystemParams
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


def test_trajectory_zero_norm_exits_numeric(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(trajectories._Engine, "click_weights",
                        lambda self, x: np.zeros(len(trajectories.DETECTED)))
    assert run(["g2", "--kind", "auto", "--method", "trajectories",
                "--detuning-nm", "0", "--seed", "3", "--duration-ns", "100",
                "--out-prefix", tmp_path / "z"]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_lifetime_with_dark_exciton_channel(tmp_path):
    # at 2 nm the Purcell lifetime (8.9 ns) lies inside the 25 ns period
    assert run(["lifetime", "--dl-start", "2.0", "--dl-end", "2.1", "--steps", "2",
                "--method", "trajectories", "--seed", "7",
                "--set", "system.gamma_b_GHz=0", "--set", "pulses.n_pulses=1000",
                "--out", tmp_path / "t.csv"]) == 0


# tau = 25 ns is the default repetition period, 3.59e6 ns what the fit read
# at 4 nm with a dark exciton channel (Purcell lifetime 35.5 ns)
@pytest.mark.parametrize("tau_ns,converged", [(1.0, False), (7.36e-05, True),
                                               (float("nan"), True), (25.0, True),
                                               (3.59e6, True)])
def test_lifetime_rejects_unchecked_fit(tmp_path, monkeypatch, capsys,
                                        tau_ns, converged):
    def fake_fit(hist, model):
        return fitkit.FitResult(params={"tau_ns": tau_ns}, stderr={},
                                residual_norm=0.0, n_iterations=1,
                                converged=converged, message="stub")

    monkeypatch.setattr(fitkit, "fit_decay", fake_fit)
    assert run(["lifetime", "--dl-start", "4.1", "--dl-end", "4.1", "--steps", "1",
                "--method", "trajectories", "--seed", "7",
                "--set", "pulses.n_pulses=300", "--out", tmp_path / "t.csv"]) == 3
    assert "lifetime fit at detuning 4.1 nm" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


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
    out = tmp_path / "s.csv"
    assert run(["spectrum", "--detuning-nm", "0", "--no-instrument", "--out", out]) == 0
    assert read_csv(out)[0]["instrument"] == "off"


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
