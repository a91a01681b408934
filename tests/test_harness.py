import csv
import importlib.util
import io
import json
import os
from pathlib import Path

import numpy as np
import pytest

import thzbsa as t
from thzbsa import cli
from thzbsa.harness import (CSV_COLUMNS, HYBRID_METHODS, SweepRow,
                            config_for_axis_value)


SMALL = dict(N_T=32, N_R=4, K=2, N_RF=2, L=2, M=8)


def small_cfg(**extra):
    return t.SystemConfig(**{**SMALL, **extra}).validate()


class TestRunTrial:
    def test_deterministic(self):
        cfg = small_cfg()
        a = t.run_trial(cfg, 99)
        b = t.run_trial(cfg, 99)
        for method in a.reports:
            assert a.reports[method].sum_rate == b.reports[method].sum_rate
            np.testing.assert_array_equal(a.reports[method].per_user_rate,
                                          b.reports[method].per_user_rate)

    def test_zero_bandwidth_collapses_methods(self):
        cfg = small_cfg(B=0.0)
        res = t.run_trial(cfg, 5, methods=("omp", "bsa_omp"))
        assert res.reports["bsa_omp"].sum_rate == pytest.approx(
            res.reports["omp"].sum_rate, abs=1e-10)

    def test_single_user_los_correction_never_hurts(self):
        # scalar baseband: the correction reduces to a phase and the rates tie
        cfg = t.SystemConfig(N_T=32, N_R=4, K=1, N_RF=1, L=1, M=8,
                             N_F=128, N_W=16).validate()
        wins = 0
        for seed in range(50):
            res = t.run_trial(cfg, 1000 + seed, methods=("omp", "bsa_omp"))
            if res.reports["bsa_omp"].sum_rate >= res.reports["omp"].sum_rate * (1 - 1e-9):
                wins += 1
        assert wins >= 45

    def test_methods_subset(self):
        cfg = small_cfg()
        res = t.run_trial(cfg, 1, methods=("fully_digital",))
        assert set(res.reports) == {"fully_digital"}

    def test_seed_attached_to_reports(self):
        cfg = small_cfg()
        res = t.run_trial(cfg, 321)
        assert all(r.seed == 321 for r in res.reports.values())

    def test_redraw_exhausted(self, monkeypatch):
        from thzbsa import harness

        def always_degenerate(*args, **kwargs):
            raise t.DegenerateChannelError("forced")

        monkeypatch.setattr(harness, "omp_hybrid_beamformer", always_degenerate)
        with pytest.raises(t.RedrawExhausted, match="forced"):
            t.run_trial(small_cfg(), 1, max_redraws=2)

    def test_redraw_counted(self, monkeypatch):
        from thzbsa import harness

        calls = {"n": 0}
        original = harness.omp_hybrid_beamformer

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise t.DegenerateChannelError("first draw bad")
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "omp_hybrid_beamformer", flaky)
        res = t.run_trial(small_cfg(), 1)
        assert res.redraws == 1


    def test_sd_oracle_pair_computed_once(self, monkeypatch):
        # bsa_omp matches the SD-oracle pair that sd_oracle reports; it is
        # built once and its zero-forcing solve is not repeated
        from thzbsa import bsa, harness, omp

        calls = {"baseband_zf": 0, "sd_oracle_beamformers": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        zf = counted("baseband_zf", omp.baseband_zf)
        for module in (omp, bsa):
            monkeypatch.setattr(module, "baseband_zf", zf)
        monkeypatch.setattr(harness, "sd_oracle_beamformers",
                            counted("sd_oracle_beamformers", bsa.sd_oracle_beamformers))
        res = t.run_trial(small_cfg(), 7)
        assert res.redraws == 0
        assert set(res.reports) == set(t.METHODS)
        assert calls == {"baseband_zf": 2, "sd_oracle_beamformers": 1}

    def test_golden_desk_trials(self):
        # the seeded per-report values the benchmark pins, checked in tier 1
        path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
        golden = json.loads(path.read_text())
        cfg = t.build_config("desk")
        for entry in golden["desk"][:8]:
            res = t.run_trial(cfg, entry["seed"])
            assert res.redraws == entry["redraws"]
            assert set(res.reports) == set(entry["sum_rate"])
            for method, rate in entry["sum_rate"].items():
                report = res.reports[method]
                assert report.sum_rate == pytest.approx(rate, rel=1e-9, abs=0), method
                if method in HYBRID_METHODS:
                    assert report.power_residual <= 1e-9, method


class TestConfigForAxis:
    def test_snr_maps_to_noise_power(self):
        cfg = config_for_axis_value(small_cfg(), "snr_db", 10.0)
        assert cfg.P == 1.0
        assert cfg.sigma_n2 == pytest.approx(0.1)

    def test_bandwidth(self):
        cfg = config_for_axis_value(small_cfg(), "bandwidth_hz", 5e9)
        assert cfg.B == 5e9

    def test_users_also_sets_rf_chains(self):
        cfg = config_for_axis_value(small_cfg(), "num_users", 4)
        assert cfg.K == 4 and cfg.N_RF == 4

    def test_users_requires_integer(self):
        with pytest.raises(ValueError):
            config_for_axis_value(small_cfg(), "num_users", 2.5)


class TestSweepSpec:
    def test_rejects_non_monotone_values(self):
        spec = t.SweepSpec(axis="snr_db", values=[0, 10, 5], base_config=small_cfg())
        with pytest.raises(ValueError, match="monotone"):
            spec.validate()

    def test_rejects_unknown_method(self):
        spec = t.SweepSpec(axis="snr_db", values=[0], methods=("nope",),
                           base_config=small_cfg())
        with pytest.raises(ValueError, match="unknown methods"):
            spec.validate()

    def test_workers_bounded_by_cpu_count(self, monkeypatch):
        # validation only: no pool is started
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for workers in (1, 4):
            t.SweepSpec(axis="snr_db", values=[0], workers=workers,
                        base_config=small_cfg()).validate()
        for workers in (0, -1, 5):
            spec = t.SweepSpec(axis="snr_db", values=[0], workers=workers,
                               base_config=small_cfg())
            with pytest.raises(ValueError, match="workers must be in 1..4"):
                spec.validate()

    def test_rejects_unknown_axis(self):
        spec = t.SweepSpec(axis="frequency", values=[0], base_config=small_cfg())
        with pytest.raises(ValueError, match="axis"):
            spec.validate()


class TestRunSweep:
    def test_single_point_rows(self):
        spec = t.SweepSpec(axis="snr_db", values=[0.0], trials=1,
                           methods=("omp", "fully_digital"),
                           base_config=small_cfg(), seed=3)
        result = t.run_sweep(spec)
        assert [r.method for r in result.rows] == ["omp", "fully_digital"]
        row = result.rows[0]
        assert row.trials == 1 and row.std_sum_rate == 0.0
        assert row.per_subcarrier_avg == pytest.approx(row.mean_sum_rate / 8)

    def test_reproducible_across_runs_and_workers(self):
        spec = t.SweepSpec(axis="snr_db", values=[-5.0, 5.0], trials=3,
                           methods=("omp", "bsa_omp"), base_config=small_cfg(), seed=11)
        a = t.run_sweep(spec)
        b = t.run_sweep(spec)
        assert a == b
        spec_workers = t.SweepSpec(axis="snr_db", values=[-5.0, 5.0], trials=3,
                                   methods=("omp", "bsa_omp"),
                                   base_config=small_cfg(), seed=11, workers=2)
        c = t.run_sweep(spec_workers)
        assert a.rows == c.rows

    def test_per_user_rate_nonincreasing_in_users(self):
        spec = t.SweepSpec(axis="num_users", values=[1, 2, 4], trials=6,
                           methods=("omp",), base_config=small_cfg(N_W=8), seed=5)
        result = t.run_sweep(spec)
        per_user = [row.mean_sum_rate / row.axis_value for row in result.rows]
        assert per_user == sorted(per_user, reverse=True)

    def test_config_hash_varies_along_axis(self):
        spec = t.SweepSpec(axis="bandwidth_hz", values=[1e9, 20e9], trials=1,
                           methods=("omp",), base_config=small_cfg(), seed=2)
        result = t.run_sweep(spec)
        hashes = {row.config_hash for row in result.rows}
        assert len(hashes) == 2


class TestEmit:
    def _small_result(self):
        spec = t.SweepSpec(axis="snr_db", values=[0.0], trials=2,
                           methods=("omp",), base_config=small_cfg(), seed=7)
        return t.run_sweep(spec)

    def test_empty_result_header_only(self):
        empty = t.SweepResult(axis="snr_db", rows=[], base_config={})
        text = t.emit(empty, "csv")
        assert text.strip() == ",".join(CSV_COLUMNS)

    def test_csv_columns_exact(self, tmp_path):
        result = self._small_result()
        path = tmp_path / "out.csv"
        t.emit(result, "csv", path)
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert rows[1][0] == "snr_db"
        assert rows[1][2] == "omp"
        assert float(rows[1][3]) == result.rows[0].mean_sum_rate

    def test_json_round_trip(self, tmp_path):
        result = self._small_result()
        path = tmp_path / "out.json"
        t.emit(result, "json", path)
        again = t.load_sweep_json(path)
        assert again == result

    def test_json_carries_config_and_redraws(self, tmp_path):
        result = self._small_result()
        payload = json.loads(t.emit(result, "json"))
        assert payload["config"]["N_T"] == SMALL["N_T"]
        assert all("redraws" in row for row in payload["rows"])

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            t.emit(self._small_result(), "yaml")

    def _two_rows(self):
        return t.SweepResult(axis="snr_db", rows=[
            SweepRow(-5.0, "omp", 1 / 3, 0.1, 1 / 96, 3, 7, "abcdef012345", 2),
            SweepRow(5.0, "fully_digital", 12.5, 0.0, 0.390625, 1, 7, "abcdef012345", 0),
        ], base_config={"K": 2, "sinr_convention": "physical"})

    def test_csv_bytes(self):
        assert t.emit(self._two_rows(), "csv") == (
            "axis,axis_value,method,mean_sum_rate,std_sum_rate,per_subcarrier_avg,"
            "trials,seed,config_hash\r\n"
            "snr_db,-5.0,omp,0.3333333333333333,0.1,0.010416666666666666,3,7,"
            "abcdef012345\r\n"
            "snr_db,5.0,fully_digital,12.5,0.0,0.390625,1,7,abcdef012345\r\n"
        )

    def test_json_bytes(self):
        assert t.emit(self._two_rows(), "json") == """{
  "axis": "snr_db",
  "config": {
    "K": 2,
    "sinr_convention": "physical"
  },
  "rows": [
    {
      "axis": "snr_db",
      "axis_value": -5.0,
      "method": "omp",
      "mean_sum_rate": 0.3333333333333333,
      "std_sum_rate": 0.1,
      "per_subcarrier_avg": 0.010416666666666666,
      "trials": 3,
      "seed": 7,
      "config_hash": "abcdef012345",
      "redraws": 2
    },
    {
      "axis": "snr_db",
      "axis_value": 5.0,
      "method": "fully_digital",
      "mean_sum_rate": 12.5,
      "std_sum_rate": 0.0,
      "per_subcarrier_avg": 0.390625,
      "trials": 1,
      "seed": 7,
      "config_hash": "abcdef012345",
      "redraws": 0
    }
  ]
}
"""

    def test_json_row_without_redraws_loads_as_zero(self, tmp_path):
        payload = json.loads(t.emit(self._two_rows(), "json"))
        del payload["rows"][0]["redraws"]
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        rows = t.load_sweep_json(path).rows
        assert [r.redraws for r in rows] == [0, 0]
        assert rows[0] == SweepRow(-5.0, "omp", 1 / 3, 0.1, 1 / 96, 3, 7, "abcdef012345")


class TestConfigModule:
    def test_profiles(self):
        desk = t.build_config("desk")
        paper = t.build_config("paper")
        assert (desk.N_T, desk.K, desk.M) == (64, 4, 32)
        assert (paper.N_T, paper.K, paper.M) == (128, 8, 128)
        assert paper.N_F == 256 and paper.N_W == 16

    def test_unknown_profile(self):
        with pytest.raises(t.ConfigError):
            t.build_config("huge")

    def test_invalid_combinations(self):
        with pytest.raises(t.ConfigError, match="N_RF"):
            t.SystemConfig(N_RF=3, K=4).validate()
        with pytest.raises(t.ConfigError, match="B"):
            t.SystemConfig(B=700e9).validate()
        with pytest.raises(t.ConfigError, match="sinr"):
            t.SystemConfig(sinr_convention="mystery").validate()
        with pytest.raises(t.ConfigError, match="M"):
            t.SystemConfig(M=0).validate()

    def test_config_file_parsing(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("""
# comment line
N_T = 16
B = 1.5e9         # inline comment
normalize_gain = false
seed = 9
""")
        overrides = t.parse_config_file(cfg_file)
        assert overrides == {"N_T": 16, "B": 1.5e9, "normalize_gain": False, "seed": 9}
        cfg = t.build_config("desk", overrides, {"seed": 77})
        assert cfg.N_T == 16 and cfg.seed == 77

    @pytest.mark.parametrize("name", ["f_c", "B", "P", "sigma_n2", "d_bar", "k_abs",
                                      "excess_delay", "nlos_penalty_db", "d_spacing"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(t.ConfigError, match=f"{name} must be finite"):
            t.SystemConfig(**{name: value}).validate()

    def test_every_field_round_trips_through_config_file(self, tmp_path):
        base = t.SystemConfig()
        cfg_file = tmp_path / "all.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in base.to_dict().items()))
        overrides = t.parse_config_file(cfg_file)
        assert overrides == base.to_dict()
        assert t.SystemConfig(**overrides) == base

    def test_config_file_rejects_unknown_key(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("antennas = 12\n")
        with pytest.raises(t.ConfigError, match="unknown config key"):
            t.parse_config_file(bad)

    def test_hash_changes_iff_any_field_changes(self):
        base = t.SystemConfig()
        assert t.config_hash(base) == t.config_hash(t.SystemConfig())
        seen = {t.config_hash(base)}
        for change in ({"f_c": 299e9}, {"B": 1e9}, {"M": 16}, {"N_T": 32},
                       {"N_R": 2}, {"K": 2, "N_RF": 2}, {"L": 1}, {"P": 2.0},
                       {"sigma_n2": 0.5}, {"d_bar": 5.0}, {"k_abs": 0.1},
                       {"N_F": 64}, {"N_W": 4}, {"seed": 2},
                       {"nlos_penalty_db": 6.0}, {"excess_delay": 1e-9},
                       {"normalize_gain": False},
                       {"sinr_convention": "as_printed"}, {"d_spacing": 1e-3}):
            h = t.config_hash(base.replace(**change))
            assert h not in seen, f"hash collision for {change}"
            seen.add(h)


class TestCli:
    def test_show_config(self, capsys):
        assert cli.main(["show-config", "--profile", "desk"]) == 0
        out = capsys.readouterr().out
        assert "N_T = 64" in out and "f_c = 300000000000.0" in out

    def test_simulate_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = cli.main([
            "simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
            "--methods", "omp,fully_digital", "--seed", "4",
            "--config", str(_write_small_cfg(tmp_path)),
            "--out", str(out), "--format", "csv",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3

    def test_simulate_accepts_negative_values(self, tmp_path, capsys):
        # "--values -10,0" must not be eaten by the option parser
        code = cli.main([
            "simulate", "--sweep", "snr", "--values", "-10,0", "--trials", "1",
            "--methods", "omp", "--seed", "4",
            "--config", str(_write_small_cfg(tmp_path)), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["axis_value"] for row in payload["rows"]] == [-10.0, 0.0]

    def test_simulate_json_stdout(self, tmp_path, capsys):
        code = cli.main([
            "simulate", "--sweep", "users", "--values", "1,2", "--trials", "1",
            "--methods", "omp", "--seed", "4",
            "--config", str(_write_small_cfg(tmp_path)), "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [row["axis_value"] for row in payload["rows"]] == [1.0, 2.0]

    def test_bad_values_exit_code(self, tmp_path, capsys):
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0,zero",
                         "--trials", "1"])
        assert code == 2

    def test_non_monotone_values_exit_code(self, capsys):
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0,10,5",
                         "--trials", "1"])
        assert code == 2

    def test_unknown_method_exit_code(self, capsys):
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0",
                         "--methods", "magic"])
        assert code == 2

    def test_array_gain_csv(self, tmp_path, capsys):
        out = tmp_path / "gain.csv"
        code = cli.main([
            "array-gain", "--phi", "0.5", "--subcarrier", "8",
            "--grid-points", "101", "--out", str(out),
            "--config", str(_write_small_cfg(tmp_path)),
        ])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == ["phi_bar", "gain"]
        gains = np.array([float(r[1]) for r in rows[1:]])
        assert len(gains) == 101
        assert gains.max() <= 1.0 + 1e-9

    def test_array_gain_peak_location(self, tmp_path):
        # the emitted curve must peak at the dilated direction
        cfg_file = _write_small_cfg(tmp_path)
        out = tmp_path / "gain.csv"
        assert cli.main(["array-gain", "--phi", "0.5", "--subcarrier", "8",
                         "--out", str(out), "--config", str(cfg_file)]) == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
        phi_bar = np.array([float(r[0]) for r in rows])
        gains = np.array([float(r[1]) for r in rows])
        cfg = t.build_config("desk", t.parse_config_file(cfg_file))
        eta_m = t.frequency_ratios(cfg)[7]
        assert abs(phi_bar[np.argmax(gains)] - eta_m * 0.5) <= phi_bar[1] - phi_bar[0]

    def test_array_gain_bad_subcarrier(self, tmp_path, capsys):
        code = cli.main(["array-gain", "--phi", "0.1", "--subcarrier", "9999"])
        assert code == 2

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg_file = _write_small_cfg(tmp_path)
        cfg_file.write_text(cfg_file.read_text() + "sigma_n2 = nan\n")
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
                         "--methods", "omp", "--config", str(cfg_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert "sigma_n2 must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("workers", ["0", "-2", "3"])
    def test_workers_out_of_range_exit_code(self, monkeypatch, capsys, workers):
        # rejected at validation, before any pool exists
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep started"))
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
                         "--methods", "omp", "--workers", workers])
        assert code == 2
        assert "workers must be in 1..2" in capsys.readouterr().err

    def test_non_finite_result_exit_code(self, tmp_path, capsys):
        # finite and positive, so validation accepts it, but the SINRs overflow
        cfg_file = tmp_path / "tiny_noise.cfg"
        cfg_file.write_text("sigma_n2 = 1e-320\n")
        code = cli.main(["simulate", "--sweep", "bandwidth", "--values", "1e9",
                         "--trials", "2", "--config", str(cfg_file)])
        assert code == 3
        captured = capsys.readouterr()
        assert "non-finite omp sum rate" in captured.err
        assert "RuntimeWarning" not in captured.err
        assert captured.out == ""

    def test_non_finite_result_stops_at_first_trial(self, monkeypatch, tmp_path, capsys):
        from thzbsa import harness

        calls = {"n": 0}
        original = harness.run_trial

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "run_trial", counted)
        cfg_file = tmp_path / "tiny_noise.cfg"
        cfg_file.write_text("sigma_n2 = 1e-320\n")
        code = cli.main(["simulate", "--sweep", "bandwidth", "--values", "1e9,2e9",
                         "--trials", "2", "--config", str(cfg_file)])
        assert code == 3
        assert calls["n"] == 1
        assert "numerical failure: non-finite omp sum rate" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def exhausted(spec):
            raise t.RedrawExhausted("every draw degenerate")

        monkeypatch.setattr(cli, "run_sweep", exhausted)
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0",
                         "--trials", "1", "--methods", "omp"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestBenchmarkContract:
    def test_traced_names_resolve(self):
        # the benchmark traces by replacing these module-level names; a
        # deleted or renamed one would break its per-module trace
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        assert spans.PATCHES
        for module_name, name, _ in spans.PATCHES:
            assert callable(getattr(importlib.import_module(module_name), name)), \
                f"{module_name}.{name}"


def _write_small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in SMALL.items()))
    return path
