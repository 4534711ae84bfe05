import json
import re

import numpy as np
import pytest

from cavqed import trajectories
from cavqed.cli import main
from cavqed.csvio import read_csv, write_csv


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


def test_lifetime_sweep_monotone_and_fit(tmp_path):
    sweep = tmp_path / "tau.csv"
    fit_out = tmp_path / "tau_fit.csv"
    assert run(["lifetime", "--dl-start", "0.3", "--dl-end", "4.1", "--steps", "7",
                "--set", "system.g_GHz=20.7", "--out", sweep]) == 0
    _, cols = read_csv(sweep)
    assert np.all(np.diff(cols["tau_ns"]) > 0)
    assert run(["fit", "--model", "lifetime", "--data", sweep,
                "--set", "system.g_GHz=20.7", "--out", fit_out]) == 0
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
    monkeypatch.setenv("CAVQED_THREADS", "1")
    monkeypatch.setattr(trajectories._Engine, "click_weights",
                        lambda self, x: np.zeros(len(trajectories.DETECTED)))
    assert run(["g2", "--kind", "auto", "--method", "trajectories",
                "--detuning-nm", "0", "--seed", "3", "--duration-ns", "100",
                "--out-prefix", tmp_path / "z"]) == 3
    assert "numerical failure:" in capsys.readouterr().err


def test_lifetime_with_dark_exciton_channel(tmp_path):
    assert run(["lifetime", "--dl-start", "4.0", "--dl-end", "4.1", "--steps", "2",
                "--method", "trajectories", "--seed", "7",
                "--set", "system.gamma_b_GHz=0", "--set", "pulses.n_pulses=300",
                "--out", tmp_path / "t.csv"]) == 0


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


def test_parallel_trajectories_identical(tmp_path, monkeypatch):
    args = ["g2", "--kind", "auto", "--method", "trajectories",
            "--detuning-nm", "4.1", "--seed", "23",
            "--duration-ns", "4000", "--trajectories", "4",
            "--window-ns", "20",
            "--set", "system.lambda_x_nm=946.6",
            "--set", "system.emitter_levels=3",
            "--set", "system.gamma_x_GHz=0.015",
            "--set", "system.pump_GHz=0.001",
            "--set", "system.feeder_pump_GHz=2.0",
            "--set", "system.feeder_decay_GHz=0.1224",
            "--set", "system.n_max=2"]
    monkeypatch.setenv("CAVQED_THREADS", "1")
    assert run(args + ["--out-prefix", tmp_path / "serial"]) == 0
    monkeypatch.setenv("CAVQED_THREADS", "3")
    assert run(args + ["--out-prefix", tmp_path / "pool"]) == 0
    for suffix in ("_clicks.csv", "_histogram.csv"):
        assert ((tmp_path / ("serial" + suffix)).read_bytes()
                == (tmp_path / ("pool" + suffix)).read_bytes())


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
