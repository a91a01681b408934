import csv
import dataclasses
import importlib.util
import io
import json
import math
import os
import re
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import thzbsa as t
from thzbsa import cli
from thzbsa.harness import (CSV_COLUMNS, HYBRID_METHODS, METHODS, SweepRow, _trial_seed,
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

    def test_redraw_exhausted(self, monkeypatch):
        from thzbsa import harness

        def always_degenerate(*args, **kwargs):
            raise t.DegenerateChannelError("forced")

        monkeypatch.setattr(harness, "omp_hybrid_beamformer", always_degenerate)
        with pytest.raises(t.DegenerateChannelError, match="forced"):
            t.run_trial(small_cfg(), 1)

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

    def test_redraw_frees_the_failed_draw(self, monkeypatch):
        # the kept error must not hold the failed attempt's frames, and with them its channel
        from thzbsa import harness

        failed = []
        original = harness.omp_hybrid_beamformer

        def flaky(cfg, channels, dictionary):
            if not failed:
                failed.append(weakref.ref(channels))
                raise t.DegenerateChannelError("first draw bad")
            assert failed[0]() is None, "the failed draw's channel is still alive"
            return original(cfg, channels, dictionary)

        monkeypatch.setattr(harness, "omp_hybrid_beamformer", flaky)
        assert t.run_trial(small_cfg(), 1).redraws == 1

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

    def test_sd_stack_dilates_once(self, monkeypatch):
        # the SD stack is one dilation of F_RF's first two rows by the (M,) ratios, which
        # gives z = exp(-j pi eta psi) for the powers, never a full N_T-row one; that needs
        # F_RF to be the steering matrix of psi_t, bit for bit
        from thzbsa import bsa, omp, phase_ops

        cfg = small_cfg(N_T=40)
        calls = []
        original = phase_ops.scale_analog_matrix

        def recorded(F_RF, eta):
            calls.append((np.shape(F_RF)[0], np.array(eta)))
            return original(F_RF, eta)

        for module in (phase_ops, omp, bsa):
            monkeypatch.setattr(module, "scale_analog_matrix", recorded)
        res = t.run_trial(cfg, 7)
        assert set(res.reports) == set(t.METHODS)
        assert len(calls) == 1
        rows, ratios = calls[0]
        eta = t.frequency_ratios(cfg)
        assert rows == 2 and ratios.shape == (cfg.M,)
        np.testing.assert_array_equal(ratios, eta)

        ch = t.generate_channel(cfg, t.draw_paths(cfg, np.random.default_rng(7)))
        bf = t.omp_hybrid_beamformer(cfg, ch)
        np.testing.assert_array_equal(bf.F_RF, t.steering_vector(cfg.N_T, bf.psi_t))

    def test_one_qr_of_the_fixed_stage_per_trial(self, monkeypatch):
        # omp_hybrid_beamformer takes the QR factor once; the ZF scaling, apply_bsa and
        # both hybrid power residuals read the stored factor
        count = {"n": 0}
        original = np.linalg.qr

        def counted(*args, **kwargs):
            count["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "qr", counted)
        res = t.run_trial(small_cfg(), 7)
        assert res.redraws == 0
        assert set(res.reports) == set(t.METHODS)
        assert count["n"] == 1

    def test_paper_trial_memory_peak(self):
        # no temporary of a paper trial is as large as the SD stack: the traced peak,
        # the stack itself included, stays within twice its bytes
        cfg = t.build_config("paper")
        t.run_trial(cfg, _trial_seed(7, 0, 998))       # the config's atom tables, cached
        tracemalloc.start()
        try:
            res = t.run_trial(cfg, _trial_seed(7, 0, 999))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.redraws == 0
        assert peak <= 2 * cfg.M * cfg.N_T * cfg.K * 16

    @pytest.mark.parametrize("methods,calls", [(t.METHODS, 2), (("omp",), 1),
                                               (("fully_digital",), 0)])
    def test_effective_channel_once_per_analog_matrix(self, monkeypatch, methods, calls):
        # one contraction for the fixed analog matrix (shared by omp and
        # bsa_omp through the stored H_eff) and one for the SD-oracle stack
        from thzbsa import bsa, omp

        count = {"n": 0}
        original = omp.effective_channel

        def counted(*args, **kwargs):
            count["n"] += 1
            return original(*args, **kwargs)

        for module in (omp, bsa):
            monkeypatch.setattr(module, "effective_channel", counted)
        res = t.run_trial(small_cfg(), 7, methods=methods)
        assert set(res.reports) == set(methods)
        assert count["n"] == calls

    @pytest.mark.parametrize("methods", [t.METHODS, ("omp",), ("omp", "fully_digital")])
    def test_trial_never_builds_H(self, monkeypatch, methods):
        # every trial quantity comes from the L path factors and the K selected
        # directions: neither the dense (K, M, N_R, N_T) stack nor the (N_T, N_F)
        # and (N_R, N_W) atom matrices are built, and no stack is decomposed
        from thzbsa.channel import ChannelSet

        cfg = small_cfg()
        stack = (cfg.K, cfg.M, cfg.N_R, cfg.N_T)
        count = {"n": 0}
        original = np.linalg.svd

        def counted(a, *args, **kwargs):
            count["n"] += np.shape(a) == stack
            return original(a, *args, **kwargs)

        def refuse(what):
            def build(self):
                raise AssertionError(f"run_trial built {what}")
            return property(build)

        monkeypatch.setattr(np.linalg, "svd", counted)
        monkeypatch.setattr(ChannelSet, "H", refuse("the dense channel stack"))
        monkeypatch.setattr(t.Dictionary, "D_F", refuse("the transmit atoms"))
        monkeypatch.setattr(t.Dictionary, "D_W", refuse("the receive atoms"))
        res = t.run_trial(cfg, 7, methods=methods)
        assert set(res.reports) == set(methods)
        assert res.redraws == 0
        assert count["n"] == 0

    @pytest.mark.parametrize("methods,message", [
        (("nope",), "unknown methods"),
        (("omp", "omp"), "without repeats"),
        ((), "non-empty"),
    ])
    def test_rejects_bad_methods(self, methods, message):
        with pytest.raises(t.ConfigError, match=message):
            t.run_trial(small_cfg(), 1, methods=methods)

    def test_golden_desk_trials(self):
        # the seeded per-report values the benchmark pins, checked in tier 1:
        # eight desk entries plus one paper entry (N_T=128, K=8, M=128 shapes)
        path = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
        golden = json.loads(path.read_text())
        cases = [("desk", entry) for entry in golden["desk"][:8]]
        cases.append(("paper", golden["paper"][0]))
        for profile, entry in cases:
            res = t.run_trial(t.build_config(profile), entry["seed"])
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
        assert cfg.sigma_n2 == pytest.approx(0.1)

    def test_bandwidth(self):
        cfg = config_for_axis_value(small_cfg(), "bandwidth_hz", 5e9)
        assert cfg.B == 5e9

    def test_users_also_sets_rf_chains(self):
        cfg = config_for_axis_value(small_cfg(), "num_users", 4)
        assert cfg.K == 4 and cfg.N_RF == 4

    @pytest.mark.parametrize("axis, value, swept", [("snr_db", 20.0, {"sigma_n2"}),
                                                    ("bandwidth_hz", 5e9, {"B"}),
                                                    ("num_users", 3, {"K", "N_RF"})])
    def test_axis_changes_only_its_own_fields(self, axis, value, swept):
        base = small_cfg(f_c=150e9, B=20e9, sigma_n2=0.3, N_F=48, N_W=6,
                         nlos_penalty_db=6.0, excess_delay=5e-9, sinr_convention="as_printed")
        before, after = base.to_dict(), config_for_axis_value(base, axis, value).to_dict()
        assert {k for k in before if before[k] != after[k]} == swept


class TestSweepSpec:
    def test_rejects_non_monotone_values(self):
        with pytest.raises(ValueError, match="monotone"):
            t.SweepSpec(axis="snr_db", values=[0, 10, 5], base_config=small_cfg())

    def test_users_requires_integer(self):
        with pytest.raises(t.ConfigError, match="integers"):
            t.SweepSpec(axis="num_users", values=[2, 2.5], base_config=small_cfg())

    @pytest.mark.parametrize("axis", ["snr_db", "bandwidth_hz", "num_users"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_values(self, axis, value):
        with pytest.raises(t.ConfigError, match="finite"):
            t.SweepSpec(axis=axis, values=[value], base_config=small_cfg())

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="unknown methods"):
            t.SweepSpec(axis="snr_db", values=[0], methods=("nope",),
                        base_config=small_cfg())

    @pytest.mark.parametrize("methods", [(), ("omp", "omp"), ("omp", "fully_digital", "omp")])
    def test_rejects_empty_or_repeated_methods(self, methods):
        with pytest.raises(t.ConfigError, match="non-empty list without repeats"):
            t.SweepSpec(axis="snr_db", values=[0], methods=methods,
                        base_config=small_cfg())

    def test_workers_bounded_by_cpu_count(self, monkeypatch):
        # validation only: no pool is started
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        for workers in (1, 4):
            t.SweepSpec(axis="snr_db", values=[0], workers=workers,
                        base_config=small_cfg()).validate()
        for workers in (0, -1, 5):
            with pytest.raises(ValueError, match="workers must be in 1..4"):
                t.SweepSpec(axis="snr_db", values=[0], workers=workers,
                            base_config=small_cfg())

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="axis"):
            t.SweepSpec(axis="frequency", values=[0], base_config=small_cfg())
        with pytest.raises(ValueError, match="unknown axis 'frequency'"):
            config_for_axis_value(small_cfg(), "frequency", 1.0)

    def test_rejects_zero_trials(self):
        with pytest.raises(t.ConfigError, match="trials must be >= 1"):
            t.SweepSpec(axis="snr_db", values=[0], trials=0, base_config=small_cfg())

    def test_values_fixed_after_construction(self):
        # appending 5 would otherwise run the unchecked, non-monotone sweep 0, 10, 5
        spec = t.SweepSpec(axis="snr_db", values=[0.0, 10.0], trials=1, methods=("omp",),
                           base_config=small_cfg())
        csv_before = t.emit(t.run_sweep(spec), "csv")
        with pytest.raises(AttributeError):
            spec.values.append(5.0)
        assert spec.values == (0.0, 10.0)
        assert t.emit(t.run_sweep(spec), "csv") == csv_before
        # a method appended to the caller's list after construction is not run
        methods = ["omp"]
        spec = t.SweepSpec(axis="snr_db", values=[0.0], trials=1, methods=methods,
                           base_config=small_cfg())
        methods.append("fully_digital")
        assert spec.methods == ("omp",)
        assert [row.method for row in t.run_sweep(spec).rows] == ["omp"]
        # the run uses, and the rows report, the integers that were checked
        for name, value in (("seed", 2.7), ("trials", 2.0), ("workers", 1.5),
                            ("seed", False), ("trials", True), ("workers", True)):
            with pytest.raises(t.ConfigError, match=f"{name} must be an integer, got {value}"):
                t.SweepSpec(axis="snr_db", values=[0.0], base_config=small_cfg(),
                            **{name: value})
        spec = t.SweepSpec(axis="snr_db", values=[0.0], trials=np.int64(1), methods=("omp",),
                           base_config=small_cfg(), seed=np.int64(2), workers=np.int64(1))
        assert all(type(getattr(spec, name)) is int for name in ("trials", "seed", "workers"))
        assert json.loads(t.emit(t.run_sweep(spec), "json"))["rows"][0]["seed"] == 2

    def test_configs_derived_when_built(self, monkeypatch):
        from thzbsa import harness

        spec = t.SweepSpec(axis="num_users", values=[1, 2], trials=1, methods=("omp",),
                           base_config=small_cfg(), seed=3)
        assert spec.configs == tuple(config_for_axis_value(small_cfg(), "num_users", k)
                                     for k in (1, 2))
        with pytest.raises(TypeError):
            t.SweepSpec(axis="num_users", values=[1], configs=spec.configs)
        # run_sweep reads the spec's configs and derives none of its own
        monkeypatch.setattr(harness, "config_for_axis_value",
                            lambda *args: pytest.fail("run_sweep derived a config"))
        assert [row.axis_value for row in t.run_sweep(spec).rows] == [1.0, 2.0]

    @pytest.mark.parametrize("axis, value, message", [
        ("num_users", 100, "num_users value 100.0: need 1 <= K <= N_T"),
        ("snr_db", -4000.0, "snr_db value -4000.0: sigma_n2 = 10"),
    ])
    def test_unrunnable_point_rejected_when_built(self, axis, value, message):
        # each passes the axis-value checks, but no desk config has that point
        with pytest.raises(t.ConfigError, match=re.escape(message)):
            t.SweepSpec(axis=axis, values=[2, value] if axis == "num_users" else [value])


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
        path.write_text(t.emit(result, "csv"))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert rows[1][0] == "snr_db"
        assert rows[1][2] == "omp"
        assert float(rows[1][3]) == result.rows[0].mean_sum_rate

    def test_json_round_trip(self, tmp_path):
        result = self._small_result()
        path = tmp_path / "out.json"
        path.write_text(t.emit(result, "json"))
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
    def test_fields_stored_as_declared_type(self):
        # equal configs hash equal: a real field given as an int is stored as a float
        assert t.SystemConfig(B=0) == t.SystemConfig(B=0.0)
        assert t.config_hash(t.SystemConfig(B=0)) == t.config_hash(t.SystemConfig(B=0.0))
        assert type(t.SystemConfig(B=0).B) is float
        # an int, a float, a NumPy float and -0.0 of one value store one value and one hash
        for name, value in (("f_c", 300e9), ("B", 0), ("sigma_n2", 2),
                            ("nlos_penalty_db", 0), ("excess_delay", 0)):
            forms = [int(value), float(value), np.float64(value)] + [-0.0] * (value == 0)
            cfgs = [t.SystemConfig(**{name: v}) for v in forms]
            assert {repr(getattr(cfg, name)) for cfg in cfgs} == {repr(float(value))}
            assert len({t.config_hash(cfg) for cfg in cfgs}) == 1
        # so do the sweep's axis values: -0.0 is swept, and reported, as 0.0
        emitted = [t.emit(t.run_sweep(t.SweepSpec(axis="bandwidth_hz", values=(zero, 1e9),
                                                  trials=1, methods=("omp",),
                                                  base_config=small_cfg())), "csv")
                   for zero in (-0.0, 0.0)]
        assert emitted[0] == emitted[1]

    @pytest.mark.parametrize("name", ["M", "N_T", "N_R", "N_RF", "K", "L", "N_F", "N_W"])
    def test_integer_field_rejects_float(self, name):
        # a bool is an int to Python, not a count to the config
        for value in (float(getattr(t.SystemConfig(), name)), True, False):
            with pytest.raises(t.ConfigError, match=f"{name} must be an integer, got {value}"):
                t.SystemConfig(**{name: value})

    @pytest.mark.parametrize("name", ["f_c", "B", "sigma_n2",
                                      "excess_delay", "nlos_penalty_db"])
    def test_real_field_rejects_bool(self, name):
        with pytest.raises(t.ConfigError, match=f"{name} must be a real number, got True"):
            t.SystemConfig(**{name: True})

    def test_numpy_integer_stored_as_int(self):
        cfg = t.SystemConfig(K=np.int64(2), N_T=np.int32(64))
        assert type(cfg.K) is int and type(cfg.N_RF) is int and type(cfg.N_F) is int
        assert t.config_hash(cfg) == t.config_hash(t.SystemConfig(K=2))

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
        for fields, message in (({"f_c": -1.0}, "f_c must be positive"),
                                ({"N_T": 0}, "antenna counts must be >= 1"),
                                ({"N_R": 0}, "antenna counts must be >= 1"),
                                ({"L": 0}, "L must be >= 1"),
                                ({"N_F": 3}, "N_F must be >= N_RF"),
                                ({"N_W": 0}, "N_W must be >= 1"),
                                ({"excess_delay": -1e-9}, "excess_delay must be nonnegative")):
            with pytest.raises(t.ConfigError, match=message):
                t.SystemConfig(**fields)

    def test_frozen_and_checked_on_construction(self):
        cfg = t.SystemConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.K = 2
        with pytest.raises(t.ConfigError, match="K"):
            t.SystemConfig(K=0)
        # receive atoms may repeat across users, so K may exceed N_W
        assert t.SystemConfig(K=9).N_W == 8

    def test_replace_derives_sizes_again(self):
        cfg = t.SystemConfig()
        assert (cfg.replace(K=2).K, cfg.replace(K=2).N_RF) == (2, 2)
        assert cfg.replace(N_T=128).N_F == 256 and cfg.replace(N_R=2).N_W == 4
        # a size set to anything but its derived value is kept
        assert t.SystemConfig(N_F=100).replace(N_T=128).N_F == 100
        assert t.SystemConfig(N_W=5).replace(N_R=8).N_W == 5
        assert cfg.replace(N_T=128, N_F=64).N_F == 64

    def test_config_file_parsing(self, tmp_path):
        cfg_file = tmp_path / "sim.cfg"
        cfg_file.write_text("""
# comment line
N_T = 16
B = 1.5e9         # inline comment
sinr_convention = as_printed
""")
        overrides = t.parse_config_file(cfg_file)
        assert overrides == {"N_T": 16, "B": 1.5e9, "sinr_convention": "as_printed"}
        cfg = t.build_config("desk", overrides)
        assert (cfg.N_T, cfg.B, cfg.sinr_convention) == (16, 1.5e9, "as_printed")

    @pytest.mark.parametrize("name", ["f_c", "B", "sigma_n2",
                                      "excess_delay", "nlos_penalty_db"])
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

    @pytest.mark.parametrize("line, message", [
        ("antennas = 12", "unknown config key"),
        ("N_T 12", "expected 'key = value'"),
        ("K = 4.0", "K must be an integer, got 4.0"),
    ], ids=["unknown_key", "no_equals", "fractional_int"])
    def test_config_file_rejects_unknown_key(self, tmp_path, line, message):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        with pytest.raises(t.ConfigError, match=message):
            t.build_config("desk", t.parse_config_file(bad))

    def test_hash_changes_iff_any_field_changes(self):
        base = t.SystemConfig()
        assert t.config_hash(base) == t.config_hash(t.SystemConfig())
        seen = {t.config_hash(base)}
        for change in ({"f_c": 299e9}, {"B": 1e9}, {"M": 16}, {"N_T": 32},
                       {"N_R": 2}, {"K": 2, "N_RF": 2}, {"L": 1}, {"sigma_n2": 0.5},
                       {"N_F": 64}, {"N_W": 4},
                       {"nlos_penalty_db": 6.0}, {"excess_delay": 1e-9},
                       {"sinr_convention": "as_printed"}):
            h = t.config_hash(base.replace(**change))
            assert h not in seen, f"hash collision for {change}"
            seen.add(h)

    def test_every_field_moves_a_rate(self):
        # a field that changes no sum rate is dead weight in the config file,
        # the validation and the hash; K and N_RF must move together
        base = small_cfg()
        perturbations = {
            "f_c": {"f_c": 150e9}, "B": {"B": 5e9}, "M": {"M": 5},
            "N_T": {"N_T": 24}, "N_R": {"N_R": 3},
            "N_RF": {"K": 3, "N_RF": 3}, "K": {"K": 3, "N_RF": 3}, "L": {"L": 3},
            "sigma_n2": {"sigma_n2": 0.5},
            "N_F": {"N_F": 40}, "N_W": {"N_W": 6},
            "nlos_penalty_db": {"nlos_penalty_db": 3.0},
            "excess_delay": {"excess_delay": 5e-9},
            "sinr_convention": {"sinr_convention": "as_printed"},
        }
        assert set(perturbations) == set(base.to_dict())

        def rates(cfg):
            reports = t.run_trial(cfg.validate(), 3).reports
            return np.array([reports[m].sum_rate for m in METHODS])

        ref = rates(base)
        for name, change in perturbations.items():
            moved = np.abs(rates(base.replace(**change)) - ref) / ref
            assert moved.max() > 1e-6, f"{name} moves no sum rate"


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

    def test_simulate_out_logs_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = cli.main([
            "simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
            "--methods", "omp", "--config", str(_write_small_cfg(tmp_path)),
            "--out", str(out), "--format", "json",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"wrote {out}\n"
        assert json.loads(out.read_text())["rows"]

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

    def test_empty_values_exit_code(self, monkeypatch, capsys):
        # an empty list is an error, not a request for the default sweep
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep started"))
        code = cli.main(["simulate", "--sweep", "snr", "--values", "", "--trials", "1"])
        assert code == 2
        assert "sweep needs at least one axis value" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "2.5"])
    def test_bad_users_value_exit_code(self, capsys, value):
        code = cli.main(["simulate", "--sweep", "users", "--values", value,
                         "--trials", "1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_users_sweep_past_receive_grid(self, capsys):
        # desk N_W = 8: receive atoms may repeat across users, so K = 9 runs
        code = cli.main(["simulate", "--sweep", "users", "--values", "2,9", "--trials", "1",
                         "--format", "json"])
        assert code == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert sorted({row["axis_value"] for row in rows}) == [2.0, 9.0]
        assert all(np.isfinite(row["mean_sum_rate"]) for row in rows)

    @pytest.mark.parametrize("value", ["-4000", "4000"])
    def test_extreme_snr_exit_code(self, capsys, value):
        # sigma_n2 = 10^(-SNR/10) overflows a float, or underflows to 0:
        # one config error line naming the value, no traceback
        code = cli.main(["simulate", "--sweep", "snr", f"--values={value}", "--trials", "1"])
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: snr_db value ")
        assert f"value {float(value)}: sigma_n2" in lines[0]
        assert captured.out == ""

    def test_d_spacing_is_not_a_config_key(self, tmp_path, capsys):
        # the spacing is always half a wavelength, transmit power, distance and
        # absorption only rescale SNR = 1 / sigma_n2, and the seed is the sweep's
        for key, value in (("d_spacing", "0.001"), ("d_bar", "10.0"), ("k_abs", "0.0"),
                           ("normalize_gain", "true"), ("seed", "1"), ("P", "2.0")):
            cfg_file = tmp_path / f"{key}.cfg"
            cfg_file.write_text(f"{key} = {value}\n")
            code = cli.main(["show-config", "--config", str(cfg_file)])
            assert code == 2
            assert f"unknown config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("profile, K", [("desk", 2), ("paper", 4)])
    def test_config_file_may_set_k_alone(self, tmp_path, capsys, profile, K):
        cfg_file = tmp_path / "users.cfg"
        cfg_file.write_text(f"K = {K}\n")
        assert cli.main(["show-config", "--profile", profile, "--config", str(cfg_file)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"K = {K}" in out and f"N_RF = {K}" in out

    def test_config_file_rf_chains_other_than_k_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "users.cfg"
        cfg_file.write_text("K = 2\nN_RF = 3\n")
        assert cli.main(["show-config", "--config", str(cfg_file)]) == 2
        assert "N_RF must equal K" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["show-config"],
                                         ["array-gain", "--phi", "0.1", "--subcarrier", "1"]])
    def test_seed_is_a_simulate_flag_only(self, capsys, command):
        with pytest.raises(SystemExit) as exit_info:
            cli.main(command + ["--seed", "3"])
        assert exit_info.value.code == 2

    def test_non_monotone_values_exit_code(self, capsys):
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0,10,5",
                         "--trials", "1"])
        assert code == 2

    def test_unknown_method_exit_code(self, capsys):
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0",
                         "--methods", "magic"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [
        ("--values", "0,,10"), ("--values", "0,10,"), ("--values", " , 5"),
        ("--methods", "omp,"), ("--methods", "omp,,bsa_omp"),
    ])
    def test_stray_comma_exit_code(self, monkeypatch, capsys, flag, value):
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep started"))
        argv = {"--values": "0", "--methods": "omp", flag: value}
        code = cli.main(["simulate", "--sweep", "snr", "--trials", "1",
                         "--values", argv["--values"], "--methods", argv["--methods"]])
        assert code == 2
        assert f"{flag} {value!r} has an empty entry" in capsys.readouterr().err

    @pytest.mark.parametrize("methods", [",", "omp,omp"])
    def test_empty_or_repeated_methods_exit_code(self, monkeypatch, capsys, methods):
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep started"))
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
                         "--methods", methods])
        assert code == 2
        assert "non-empty list without repeats" in capsys.readouterr().err

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

    def test_array_gain_endfire_keeps_its_sign(self, tmp_path):
        # a(-1) = a(+1) as vectors, yet --phi -1 must peak at -eta_m, mirroring --phi 1
        curves = {}
        for phi in ("-1", "1"):
            out = tmp_path / f"gain{phi}.csv"
            assert cli.main(["array-gain", "--phi", phi, "--subcarrier", "1",
                             "--out", str(out)]) == 0
            rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
            curves[phi] = np.array(rows, dtype=float).T
        phi_bar, gains = curves["-1"]
        eta_1 = t.frequency_ratios(t.build_config("desk"))[0]
        assert abs(phi_bar[np.argmax(gains)] + eta_1) <= phi_bar[1] - phi_bar[0]
        np.testing.assert_allclose(gains, curves["1"][1][::-1], rtol=0, atol=1e-12)

    def test_array_gain_bad_subcarrier(self, tmp_path, capsys):
        code = cli.main(["array-gain", "--phi", "0.1", "--subcarrier", "9999"])
        assert code == 2

    @pytest.mark.parametrize("flags,message", [
        (["--phi", "nan"], "--phi must be finite"),
        (["--phi", "inf"], "--phi must be finite"),
        (["--phi", "0.5", "--grid-points", "0"], "--grid-points must be >= 1"),
        (["--phi", "0.5", "--grid-points", "-3"], "--grid-points must be >= 1"),
        (["--phi", "1.5"], "--phi must be finite and in [-1, 1]"),
        (["--phi", "-1.01"], "--phi must be finite and in [-1, 1]"),
    ])
    def test_array_gain_bad_numbers_exit_code(self, capsys, flags, message):
        code = cli.main(["array-gain", "--subcarrier", "1"] + flags)
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_config_file_with_bom(self, tmp_path, capsys):
        # a UTF-8 byte-order mark, as some editors write it, is not part of the first key
        plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
        plain.write_text("N_T = 32\nK = 2\n")
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert t.parse_config_file(marked) == t.parse_config_file(plain) == {"N_T": 32, "K": 2}
        assert cli.main(["show-config", "--config", str(marked)]) == 0
        assert "N_T = 32" in capsys.readouterr().out

    def test_non_utf8_config_byte_counts_the_bom(self, tmp_path):
        # the offset of an invalid byte counts from the file's first byte, BOM included
        cfg_file = tmp_path / "bom_latin1.cfg"
        cfg_file.write_bytes(b"\xef\xbb\xbfK = 2\n# caf\xff\n")
        with pytest.raises(t.ConfigError, match=r"not valid UTF-8 \(invalid start byte at byte 14\)"):
            t.parse_config_file(cfg_file)

    def test_non_utf8_config_exit_code(self, tmp_path, capsys):
        cfg_file = tmp_path / "latin1.cfg"
        cfg_file.write_bytes(b"# caf\xff\nK = 2\n")
        code = cli.main(["show-config", "--config", str(cfg_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert f"config error: {cfg_file}: not valid UTF-8" in captured.err
        assert captured.out == ""

    def test_repeated_config_key_exit_code(self, tmp_path, capsys):
        cfg_file = _write_small_cfg(tmp_path)
        cfg_file.write_text(cfg_file.read_text() + "# a second K below\nK = 8\n")
        code = cli.main(["show-config", "--config", str(cfg_file)])
        assert code == 2
        line = len(SMALL) + 2
        assert f"small.cfg:{line}: config key 'K' is set twice" in capsys.readouterr().err

    def test_non_finite_config_exit_code(self, tmp_path, capsys):
        cfg_file = _write_small_cfg(tmp_path)
        cfg_file.write_text(cfg_file.read_text() + "sigma_n2 = nan\n")
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
                         "--methods", "omp", "--config", str(cfg_file)])
        assert code == 2
        captured = capsys.readouterr()
        assert "sigma_n2 must be finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("literal", [
        pytest.param(v, id=v or "empty")
        for v in ("0", "-0", "-1", "nan", "inf", "4.5", "1e400", "1e-320", "", "True",
                  "0x10", "1_0", "1000000000000000000000000000000")])
    @pytest.mark.parametrize("key", list(t.SystemConfig().to_dict()))
    def test_malformed_config_value_exit_code(self, tmp_path, capsys, key, literal):
        # any literal in any field exits 0, or 2 or 3 with one line; never a traceback.
        # The small base keeps the run fast; N_RF is left to follow K.
        base = {k: v for k, v in SMALL.items() if k not in (key, "N_RF")}
        cfg_file = tmp_path / "value.cfg"
        cfg_file.write_text("".join(f"{k} = {v}\n" for k, v in base.items())
                            + f"{key} = {literal}\n")
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
                         "--config", str(cfg_file)])
        captured = capsys.readouterr()
        assert code in (0, 2, 3)
        if code == 0:
            assert captured.err == "" and captured.out.startswith("axis,")
        else:
            prefix = "config error: " if code == 2 else "numerical failure: "
            lines = captured.err.splitlines()
            assert len(lines) == 1 and lines[0].startswith(prefix), captured.err
            assert captured.out == ""

    @pytest.mark.parametrize("message", [
        "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) and data type "
        "float64", ""])
    @pytest.mark.parametrize("argv", [
        ["simulate", "--sweep", "snr", "--values", "0", "--trials", "1"],
        ["array-gain", "--phi", "0.3", "--subcarrier", "1"]], ids=["simulate", "array_gain"])
    def test_out_of_memory_exit_code(self, monkeypatch, capsys, argv, message):
        # sizes that pass validation but that memory cannot hold; nothing is allocated here
        def out_of_memory(*args, **kwargs):
            raise MemoryError(message)
        monkeypatch.setattr(cli, "run_sweep", out_of_memory)
        monkeypatch.setattr(cli.channel, "dirichlet_sinc", out_of_memory)
        code = cli.main(argv)
        assert code == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert lines == [f"config error: {argv[0]} needs more memory than is available"
                         + (f": {message}" if message else "")]
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

    def test_negative_seed_exit_code(self, monkeypatch, capsys):
        # SeedSequence refuses negative entries, so validation must refuse them first
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep started"))
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
                         "--seed", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "config error: seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("out,message", [
        pytest.param("missing/x.csv", "[Errno 2] No such file or directory", id="missing_dir"),
        pytest.param("file/x.csv", "[Errno 20] Not a directory", id="file_as_dir"),
        pytest.param(".", "[Errno 21] Is a directory", id="directory"),
    ])
    def test_unwritable_out_exit_code(self, tmp_path, monkeypatch, capsys, out, message):
        # a sweep can take minutes; an --out it cannot write must fail before it starts
        monkeypatch.setattr(cli, "run_sweep", lambda spec: pytest.fail("sweep started"))
        (tmp_path / "file").touch()
        out = tmp_path / out
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0", "--trials", "1",
                         "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err == f"i/o error: {message}: '{out}'\n"
        assert captured.out == ""

    @pytest.mark.parametrize("key,value,message", [
        pytest.param("sigma_n2", "1e-320", "non-finite omp sum rate", id="sigma_n2"),
        pytest.param("nlos_penalty_db", "-7000", "overflow encountered", id="nlos_penalty_db"),
        pytest.param("nlos_penalty_db", "-5000", "non-finite channel Gram core",
                     id="nlos_penalty_db_gram"),
        pytest.param("excess_delay", "1e300", "overflow encountered", id="excess_delay"),
    ])
    def test_non_finite_result_exit_code(self, tmp_path, capsys, key, value, message):
        # finite, so validation accepts it, but the SINRs, the path gains,
        # the channel's Gram core or the delay phases overflow
        cfg_file = tmp_path / "overflow.cfg"
        cfg_file.write_text(f"{key} = {value}\n")
        code = cli.main(["simulate", "--sweep", "bandwidth", "--values", "1e9",
                         "--trials", "2", "--config", str(cfg_file)])
        assert code == 3
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical failure: ")
        assert message in lines[0]
        assert re.search(r"in trial seed \d+$", lines[0])
        assert "RuntimeWarning" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("penalty", ["-2000", "-2900"])
    def test_huge_finite_channel_runs(self, tmp_path, capsys, penalty):
        # NLoS gains near 1e145: the Gram core reaches about 1e290, whose cube
        # overflows, yet its top eigenpair is read from the core scaled by its trace
        cfg_file = tmp_path / "huge.cfg"
        cfg_file.write_text(f"nlos_penalty_db = {penalty}\n")
        code = cli.main(["simulate", "--sweep", "bandwidth", "--values", "1e9",
                         "--trials", "2", "--config", str(cfg_file)])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        rows = list(csv.DictReader(io.StringIO(captured.out)))
        assert [row["method"] for row in rows] == list(METHODS)
        for row in rows:
            assert math.isfinite(float(row["mean_sum_rate"])) and float(row["mean_sum_rate"]) > 0

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
            raise t.DegenerateChannelError("every draw degenerate")

        monkeypatch.setattr(cli, "run_sweep", exhausted)
        code = cli.main(["simulate", "--sweep", "snr", "--values", "0",
                         "--trials", "1", "--methods", "omp"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestBenchmarkContract:
    def test_pool_tasks_lead_with_axis_and_trial_index(self, monkeypatch):
        # the benchmark swaps harness.ProcessPoolExecutor for a recording pool,
        # reads task[0], task[1] as the trial id, and relies on _sweep_task
        # looking run_trial up by name so forked workers run its traced wrapper
        from thzbsa import harness

        tasks, calls = [], {"n": 0}
        original = harness.run_trial

        class InProcessPool:
            def __init__(self, max_workers):
                assert max_workers == 2

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable):
                assert fn is harness._sweep_task
                tasks.extend(iterable)
                return map(fn, tasks)

        def counted(*args, **kwargs):
            calls["n"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(harness, "run_trial", counted)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        spec = t.SweepSpec(axis="snr_db", values=[-5.0, 5.0], trials=2, methods=("omp",),
                           base_config=small_cfg(), seed=11, workers=2)
        pooled = t.run_sweep(spec)
        assert [task[:2] for task in tasks] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert [task[3] for task in tasks] == [harness._trial_seed(11, ai, ti)
                                               for ai in (0, 1) for ti in (0, 1)]
        assert calls["n"] == 4
        assert pooled.rows == t.run_sweep(dataclasses.replace(spec, workers=1)).rows

    def test_traced_names_resolve(self):
        # the benchmark traces by replacing these module-level names; a
        # deleted or renamed one would break its per-module trace
        spans = _load_spans()
        assert spans.PATCHES
        for module_name, name, _ in spans.PATCHES:
            assert callable(getattr(importlib.import_module(module_name), name)), \
                f"{module_name}.{name}"

    def test_trial_reaches_every_traced_trial_name(self):
        # a name the trial stops calling would leave its per-layer metric
        # reading 0; the set-up, sweep and emit names sit outside a trial
        spans = _load_spans()
        outside = {"config.build_config", "harness.run_sweep", "harness.emit",
                   "harness.run_trial"}
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            t.run_trial(small_cfg(), 7)
        finally:
            spans.uninstall()
        recorded = {span[0] for span in tracer.spans}
        missing = {name for _, _, name in spans.PATCHES} - outside - recorded
        assert not missing


def _load_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _write_small_cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in SMALL.items()))
    return path
