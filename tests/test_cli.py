"""Command-line interface: exit codes, determinism, and end-to-end flows."""

import decimal
import gzip
import hashlib
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capcycle import efficiency_no_rest, preset, read_sidecar_csv, simulator
from capcycle.cli import main
from capcycle.model import CycleSpec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_writes_trace_and_sidecar(self, capsys, tmp_path):
        out = tmp_path / "run.csv"
        code, stdout, _ = run(
            capsys, "simulate", "--device", "10F", "--ideal",
            "--current", "0.4", "--vmin", "0.5", "--vmax", "2.5",
            "--cycles", "2", "--rest", "10", "--out", str(out),
        )
        assert code == 0
        assert out.exists()
        side = tmp_path / "run.cycles.csv"
        assert side.exists()
        assert f"wrote {out}" in stdout
        bounds = read_sidecar_csv(side)
        assert [b.phase for b in bounds[:4]] == [
            "charge", "rest_high", "discharge", "rest_low",
        ]

    def test_invalid_window_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--device", "10F", "--current", "0.4",
            "--vmin", "2.5", "--vmax", "0.5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error:" in err

    def test_sample_period_longer_than_the_run_exit_2(self, capsys, tmp_path):
        # One 10F cycle is over before the first 200-s sample: the run would
        # write a trace that `analyze` cannot read, so nothing is written.
        out = tmp_path / "e.csv"
        code, stdout, err = run(
            capsys, "simulate", "--device", "10F", "--sample-period", "200",
            "--out", str(out),
        )
        assert code == 2
        assert "sample period of 200.0 s" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_window_exit_4(self, capsys, tmp_path):
        device = tmp_path / "dev.json"
        device.write_text(json.dumps({"c_main": 10.0, "r_series": 0.5}))
        code, _, err = run(
            capsys, "simulate", "--device", str(device), "--current", "3.0",
            "--vmin", "0.5", "--vmax", "2.5", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 4
        assert "error:" in err

    def test_unknown_device_exit_2(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "simulate", "--device", "13F", "--current", "1.0",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "13F" in err

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code, _, _ = run(
                capsys, "simulate", "--device", "50F", "--cycles", "2",
                "--vmin", "1.0", "--vmax", "2.0", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("quantize, trace, report", [
        (True, "0d8001634cc172a4e76f8bbce7d7f4c153a1fbbc3af902ac4875a312ed9de176",
         "b26cdbe201329cbc01d0ffddfd17434e1d7cce2bcffa7cc2d967e961725ed3ea"),
        (False, "6cbe655a193a407452e661db732ee825533468ff6f6caad7390a7d0080ce86b9", None),
    ], ids=["quantized", "unquantized"])
    def test_campaign_bytes_unchanged(self, capsys, tmp_path, quantize, trace, report):
        # The benchmark's lab round trip: how the trace CSV is written or
        # read must not move a byte of the trace, its sidecar or the report.
        out = tmp_path / "run.csv"
        code, _, err = run(capsys, "simulate", "--device", "50F", "--rest", "1800",
                           "--cycles", "8", *(["--quantize"] * quantize),
                           "--out", str(out))
        assert code == 0, err
        files = {"trace": out, "sidecar": tmp_path / "run.cycles.csv"}
        expected = {
            "trace": trace,
            "sidecar": "2977ae7735097b4172bd7dfbd4950025d677008dc8a3b6621b4116b8c276f90d",
        }
        if report is not None:
            files["report"] = tmp_path / "report.json"
            expected["report"] = report
            code, _, err = run(capsys, "analyze", str(out), "--out", str(files["report"]))
            assert code == 0, err
        digests = {k: hashlib.sha256(p.read_bytes()).hexdigest() for k, p in files.items()}
        assert digests == expected

    def test_unquantized_campaign_within_a_digit_of_the_stepped_trace(self, capsys, tmp_path):
        # A stepped propagator, x+ = M x, wrote this trace with the digest
        # below; tests/data keeps its voltage strings where they differ from
        # the modal flow's.  Put back, they give that digest again, so every
        # other byte (the header, t and i) is unchanged.  Each changed
        # voltage is within one unit of its 9th significant digit, or, near
        # 0 V at the ends of discharges, within the 3e-11 V that the stepped
        # path drifts over the 8 cycles.
        out = tmp_path / "run.csv"
        code, _, err = run(capsys, "simulate", "--device", "50F", "--rest", "1800",
                           "--cycles", "8", "--out", str(out))
        assert code == 0, err
        lines = out.read_bytes().split(b"\n")
        stepped = Path(__file__).parent / "data" / "campaign_stepped_v.csv.gz"
        rows = gzip.decompress(stepped.read_bytes()).decode().split()
        assert len(rows) == 2821
        for row in rows:
            k, old = row.split(",")
            t, new, i = lines[int(k)].decode().split(",")
            a, b = decimal.Decimal(old), decimal.Decimal(new)
            unit = decimal.Decimal(1).scaleb(max(a.adjusted(), b.adjusted()) - 8)
            assert 0 < abs(a - b) <= max(unit, decimal.Decimal("3e-11")), row
            lines[int(k)] = ",".join((t, old, i)).encode()
        assert hashlib.sha256(b"\n".join(lines)).hexdigest() == (
            "c045ea6b7192725484559730a0614f941def178466daa32edd2b09acd2608c3f")

    def test_preset_current_default(self, capsys, tmp_path):
        # 50F preset implies its campaign test current of 3.95 A
        out = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "simulate", "--device", "50F", "--vmin", "1.0",
            "--vmax", "2.0", "--out", str(out),
        )
        assert code == 0
        second_line = out.read_text().splitlines()[1]
        assert second_line.endswith(",3.95")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_refuses_rest_overridden_by_both_rests(self, capsys, tmp_path, source):
        # with both per-phase rests given, --rest used to be dropped silently
        argv = ["simulate", "--device", "10F", "--rest-high", "10", "--rest-low", "10",
                "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            argv += ["--rest", "50"]
        else:
            argv += ["--config", write_config(tmp_path, {"rest": 50})]
        code, _, err = run(capsys, *argv)
        assert_rejected(code, err, "--rest")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", ["rest", "rest-high", "rest-low"])
    def test_negative_rest_names_option_and_command(self, capsys, tmp_path, name, source):
        argv = ["simulate", "--device", "10F", "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            argv += [f"--{name}", "-5"]
        else:
            argv += ["--config", write_config(tmp_path, {name: -5})]
        code, _, err = run(capsys, *argv)
        assert_rejected(code, err, f"simulate: --{name} must be >= 0, got -5")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_cycles_names_option_and_command(self, capsys, tmp_path, source):
        argv = ["simulate", "--device", "10F", "--out", str(tmp_path / "x.csv")]
        if source == "flag":
            argv += ["--cycles", "0"]
        else:
            argv += ["--config", write_config(tmp_path, {"cycles": 0})]
        code, _, err = run(capsys, *argv)
        assert_rejected(code, err, "simulate: --cycles must be >= 1, got 0")
        assert not (tmp_path / "x.csv").exists()

    def test_rest_with_one_phase_rest_and_null_rest_accepted(self, capsys, tmp_path):
        # --rest still fills the phase whose own rest is not given, and a
        # config null counts as not given
        cfg = write_config(tmp_path, {"rest": None})
        for argv in (["--rest", "50", "--rest-high", "10"],
                     ["--config", cfg, "--rest-high", "10", "--rest-low", "10"]):
            code, _, err = run(capsys, "simulate", "--device", "10F", *argv,
                               "--out", str(tmp_path / "x.csv"))
            assert code == 0, err


class TestAnalyze:
    def test_roundtrip_recovers_closed_form(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        run(
            capsys, "simulate", "--device", "10F", "--ideal", "--current", "0.4",
            "--vmin", "0.5", "--vmax", "2.5", "--cycles", "3", "--rest", "15",
            "--out", str(out),
        )
        report_path = tmp_path / "rep.json"
        code, _, _ = run(capsys, "analyze", str(out), "--out", str(report_path))
        assert code == 0
        doc = json.loads(report_path.read_text())
        d = preset("10F", ideal=True)
        s = CycleSpec(i_c=0.4, v_min=0.5, v_max=2.5)
        assert abs(doc["steady"]["mean"]["eta"] - efficiency_no_rest(d, s)) < 0.002
        r_est = doc["identification"]["r_series_ohm"]["value"]
        assert r_est == pytest.approx(d.r_series, rel=0.02)
        c_est = doc["identification"]["c_main_F"]["value"]
        assert c_est == pytest.approx(10.0, rel=0.01)

    def test_twenty_cycles_reports_campaign_window(self, capsys, tmp_path):
        out = tmp_path / "t20.csv"
        run(
            capsys, "simulate", "--device", "10F", "--ideal", "--current", "0.4",
            "--vmin", "0.5", "--vmax", "2.5", "--cycles", "20", "--out", str(out),
        )
        code, stdout, _ = run(capsys, "analyze", str(out))
        assert code == 0
        doc = json.loads(stdout)
        assert doc["steady"]["window_first"] == 17
        assert doc["steady"]["window_last"] == 20
        assert doc["steady"]["window_rule"] == "cycles-17-20"

    def test_analyzes_simulate_default_single_cycle(self, capsys, tmp_path):
        # `simulate` runs one cycle by default; `analyze` must accept it.
        out = tmp_path / "one.csv"
        code, _, _ = run(capsys, "simulate", "--device", "10F", "--out", str(out))
        assert code == 0
        code, stdout, err = run(capsys, "analyze", str(out))
        assert code == 0, err
        doc = json.loads(stdout)
        assert len(doc["cycles"]) == 1
        assert (doc["steady"]["window_first"], doc["steady"]["window_last"]) == (1, 1)

    def test_parse_error_exit_3_names_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_s,v_V,i_A\n0.1,0.5,0.4\nnot,a,number\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 3
        assert "line 3" in err

    def test_cycle_without_input_energy_exit_4(self, capsys, tmp_path):
        # charging at -1 V takes energy out, so efficiency has no meaning
        k = np.arange(600)
        i = np.where(k // 100 % 2 == 0, 1.0, -1.0)
        bad = tmp_path / "negative.csv"
        bad.write_text("t_s,v_V,i_A\n" + "".join(
            f"{(n + 1) * 0.1:.1f},-1,{x:g}\n" for n, x in enumerate(i)
        ))
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 4, err
        assert "cycle 1" in err
        assert "NaN" not in out

    def test_more_energy_out_than_in_exit_4(self, capsys, tmp_path):
        # At a 1-s sample period this narrow window's charge ends between
        # samples, and the 0.4-s minimum segment keeps the short phases:
        # the trapezoids used to report an efficiency above 1.
        device = tmp_path / "dev.json"
        device.write_text(json.dumps({"c_main": 10.0, "r_series": 0.01, "redistribution":
                                      {"c_branch": 2.0, "r_branch": 5.0}}))
        out = tmp_path / "t.csv"
        code, _, err = run(capsys, "simulate", "--device", str(device), "--current", "1.0",
                           "--vmin", "2.0", "--vmax", "2.1", "--rest", "5", "--cycles", "6",
                           "--sample-period", "1.0", "--out", str(out))
        assert code == 0, err
        code, stdout, err = run(capsys, "analyze", str(out), "--min-segment", "0.4")
        assert code == 4, err
        assert "error: cycle 1 gives out 2.078714" in err
        assert stdout == ""

    def test_missing_file_exit_5(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.csv"))
        assert code == 5
        assert "error:" in err

    def test_stdout_deterministic(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        run(
            capsys, "simulate", "--device", "10F", "--ideal", "--current", "0.4",
            "--vmin", "1.0", "--vmax", "2.0", "--cycles", "2", "--out", str(out),
        )
        _, first, _ = run(capsys, "analyze", str(out))
        _, second, _ = run(capsys, "analyze", str(out))
        assert first == second


class TestMap:
    def test_fixture_map_matches_embedded_values(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "map", "--fixture", "table2", "--device", "100F",
            "--out", str(tmp_path / "m"),
        )
        assert code == 0
        text = (tmp_path / "m.csv").read_text()
        assert text.splitlines()[0] == "vmpu\\vMpu,0,0.25,0.5,0.7,0.9,1"
        assert "94.1" in text
        assert "94.1" in (tmp_path / "m.svg").read_text()

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        for name in ("a", "b"):
            run(
                capsys, "map", "--device", "100F", "--rest", "1800",
                "--out", str(tmp_path / name),
            )
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_bad_fixture_exit_2(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "map", "--fixture", "table2", "--device", "13F",
            "--out", str(tmp_path / "m"),
        )
        assert code == 2

    def test_custom_levels(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "map", "--device", "100F", "--levels", "0,0.5,1",
            "--out", str(tmp_path / "s"),
        )
        assert code == 0
        assert (tmp_path / "s.csv").read_text().splitlines()[0] == "vmpu\\vMpu,0,0.5,1"

    def test_simulated_map_keeps_ramps_shorter_than_glitch_filter(self, capsys, tmp_path):
        # Cell (0, 0.05) charges in under a second, less than the analyzer's
        # default 1-s glitch filter; the cell must not abort the whole map.
        code, _, err = run(
            capsys, "map", "--device", "50F", "--ideal", "--method", "simulated",
            "--levels", "0,0.05,1", "--out", str(tmp_path / "s"),
        )
        assert code == 0, err
        row = (tmp_path / "s.csv").read_text().splitlines()[2]
        assert row.startswith("0.05,")
        # Sampling lifts a short cycle's efficiency above the closed form by
        # at most one sample's capacitor step over the swing, dV/S.
        p = preset("50F", ideal=True)
        spec = CycleSpec(i_c=3.95, v_min=0.0, v_max=0.05 * p.v_rated)
        d_v = spec.i_c * 0.1 / p.c_main
        swing = spec.v_max - spec.v_min - 2 * spec.i_c * p.r_series
        excess = float(row.split(",")[1]) / 100 - efficiency_no_rest(p, spec)
        assert -5e-5 <= excess <= d_v / swing + 5e-5

    # Every option a measured grid ignores, with a value for its flag and its
    # config key; each was once accepted and silently dropped.
    _FIXTURE_IGNORES = {
        "levels": (["--levels", "0,1"], [0, 1]),
        "method": (["--method", "simulated"], "simulated"),
        "rest": (["--rest", "1800"], 1800),
        "ideal": (["--ideal"], True),
        "current": (["--current", "4.7"], 4.7),
    }

    # An option no map takes any longer: a fixture map refuses it as well,
    # the flag through argparse and the config key as unknown.
    _FIXTURE_REMOVED = {"sim-cycles": (["--sim-cycles", "20"], 20)}

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("name", [*_FIXTURE_IGNORES, *_FIXTURE_REMOVED])
    def test_fixture_refuses_ignored_option(self, capsys, tmp_path, name, source):
        removed = name in self._FIXTURE_REMOVED
        flag_argv, config_value = {**self._FIXTURE_IGNORES, **self._FIXTURE_REMOVED}[name]
        argv = ["map", "--fixture", "table2", "--device", "100F",
                "--out", str(tmp_path / "m")]
        if source == "flag":
            argv += flag_argv
        else:
            argv += ["--config", write_config(tmp_path, {name: config_value})]
        if removed and source == "flag":
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 2
            assert f"unrecognized arguments: {' '.join(flag_argv)}" in capsys.readouterr().err
        else:
            code, _, err = run(capsys, *argv)
            assert_rejected(code, err, f"unknown keys for map: ['{name}']" if removed
                            else f"--{name}")
        assert not (tmp_path / "m.csv").exists()

    def test_fixture_null_config_keys_not_given(self, capsys, tmp_path):
        cfg = write_config(tmp_path, {name: None for name in self._FIXTURE_IGNORES})
        for out, extra in (("a", ["--config", cfg]), ("b", [])):
            code, _, err = run(
                capsys, "map", "--fixture", "table4", "--device", "50F",
                "--out", str(tmp_path / out), *extra,
            )
            assert code == 0, err
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_closed_form_refuses_sim_cycles(self, capsys, tmp_path):
        # --sim-cycles is gone from every map; argparse refuses the flag
        with pytest.raises(SystemExit) as info:
            main(["map", "--sim-cycles", "5", "--out", str(tmp_path / "m")])
        assert info.value.code == 2
        assert "unrecognized arguments: --sim-cycles 5" in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_closed_form_refuses_ideal(self, capsys, tmp_path, source):
        # the closed form reads only c_main, r_series and v_rated, which
        # --ideal keeps, so the map came out the same with and without it
        argv = ["map", "--device", "50F", "--rest", "1800", "--out", str(tmp_path / "m")]
        if source == "flag":
            argv.append("--ideal")
        else:
            argv += ["--config", write_config(tmp_path, {"ideal": True})]
        code, _, err = run(capsys, *argv)
        assert_rejected(code, err, "--ideal")
        assert not (tmp_path / "m.csv").exists()

    def test_closed_form_rest_other_than_measured_duration_refused(self, capsys, tmp_path):
        # the closed-form rest model is the table3 fit, measured with 30-min rests
        code, _, err = run(
            capsys, "map", "--device", "100F", "--rest", "600",
            "--out", str(tmp_path / "m"),
        )
        assert_rejected(code, err, "--method simulated")
        assert not (tmp_path / "m.csv").exists()

    def test_closed_form_rest_measured_duration_unchanged(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "map", "--device", "100F", "--rest", "1800",
            "--out", str(tmp_path / "m"),
        )
        assert code == 0
        digests = {
            suffix: hashlib.sha256((tmp_path / f"m.{suffix}").read_bytes()).hexdigest()
            for suffix in ("csv", "svg")
        }
        assert digests == {
            "csv": "49573d2f86bfb4c73321f440288d57b1174f73a2e24602ee893baed444dbc83b",
            "svg": "4bc7e1dd996b1581f95e4c2222da45d96401c373eb2f37e2f0a2bf5e175bcd88",
        }

    _FINE = ",".join(f"{k / 20:g}" for k in range(21))

    @pytest.mark.parametrize("argv, csv, svg", [
        (("--device", "50F", "--rest", "1800"),
         "22435d8a8ed6e349ad2085cfa4e137a3bb76c72a0f59e6aec5c0f24e67a28d81",
         "6c4a6ae17bffa3750dc628ae382127e59588d0a75ef57c68eb6aa7955ebecb30"),
        # an ideal device's orbit is the closed form, whose efficiency
        # depends on the preset only through i*R, the same for every preset
        (("--device", "100F", "--ideal", "--levels", _FINE),
         "9609b3b65392788ffdd51ef42acd7045e9712caa4933796bf556b871009fcba3",
         "7eb64746391e77d9cd8d5e3e51b9288e58943f61f3a277efb8755b339ecfd8ba"),
        (("--device", "50F", "--ideal", "--levels", _FINE),
         "9609b3b65392788ffdd51ef42acd7045e9712caa4933796bf556b871009fcba3",
         "7eb64746391e77d9cd8d5e3e51b9288e58943f61f3a277efb8755b339ecfd8ba"),
    ], ids=["simmap", "rampmap", "50F-fine"])
    def test_simulated_map_bytes_unchanged(self, capsys, tmp_path, argv, csv, svg):
        # The simulated maps of the benchmark workloads: how the cells are
        # grouped into chunks must not move a byte of them.
        code, _, err = run(capsys, "map", "--method", "simulated", *argv,
                           "--out", str(tmp_path / "m"))
        assert code == 0, err
        digests = {
            suffix: hashlib.sha256((tmp_path / f"m.{suffix}").read_bytes()).hexdigest()
            for suffix in ("csv", "svg")
        }
        assert digests == {"csv": csv, "svg": svg}

    def test_simulated_rest_map_fits_no_model(self, capsys, tmp_path, monkeypatch):
        def refuse(rows):
            raise AssertionError("a simulated map fitted the rest-voltage model")

        monkeypatch.setattr("capcycle.cli.fit_self_discharge", refuse)
        code, _, err = run(
            capsys, "map", "--device", "10F", "--method", "simulated",
            "--rest", "20", "--levels", "0,0.5,1", "--out", str(tmp_path / "m"),
        )
        assert code == 0, err

    def test_simulated_cell_with_merged_phase_exit_4(self, capsys, tmp_path):
        # After the 60-s rest this device's first sampled discharge spans 9
        # samples, less than the 1-s minimum segment of a trace's analysis,
        # which merges it and exits 4.  The map solves the cell's periodic
        # orbit, which samples nothing, so there the cell is defined.
        device = tmp_path / "dev.json"
        device.write_text(json.dumps({"c_main": 10.0, "r_series": 0.01, "redistribution":
                                      {"c_branch": 30.0, "r_branch": 0.5}}))
        trace = str(tmp_path / "t.csv")
        code, _, err = run(capsys, "simulate", "--device", str(device), "--current", "1.0",
                           "--vmin", "1.89", "--vmax", "2.16", "--rest", "60",
                           "--cycles", "6", "--out", trace)
        assert code == 0, err
        code, _, err = run(capsys, "analyze", trace)
        assert code == 4, err
        assert "consecutive charge phases without the opposite phase between" in err
        code, _, err = run(capsys, "map", "--device", str(device), "--method", "simulated",
                           "--current", "1.0", "--levels", "0.6,0.7,0.8", "--rest", "60",
                           "--out", str(tmp_path / "m"))
        assert code == 0, err
        row = (tmp_path / "m.csv").read_text().splitlines()[3]
        assert row.startswith("0.8,") and 0 < float(row.split(",")[2]) < 100  # (0.7, 0.8)

    def test_simulated_zero_rest_is_the_no_rest_map(self, capsys, tmp_path):
        # --rest 0 used to exit 2; it is the rest-free protocol, while a
        # negative rest is still refused
        argv = ["map", "--device", "10F", "--method", "simulated", "--levels", "0,0.5,1"]
        for name, extra in (("none", []), ("zero", ["--rest", "0"])):
            code, _, err = run(capsys, *argv, *extra, "--out", str(tmp_path / name))
            assert code == 0, err
        for suffix in ("csv", "svg"):
            none, zero = (tmp_path / f"{n}.{suffix}" for n in ("none", "zero"))
            assert none.read_bytes() == zero.read_bytes()
        code, _, err = run(capsys, *argv, "--rest", "-5", "--out", str(tmp_path / "neg"))
        assert code == 2, err
        assert "map: --rest must be >= 0, got -5" in err
        cfg = write_config(tmp_path, {"rest": -5})
        code, _, err = run(capsys, *argv, "--config", cfg, "--out", str(tmp_path / "neg"))
        assert_rejected(code, err, "map: --rest must be >= 0, got -5")
        assert not (tmp_path / "neg.csv").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_zero_sim_cycles_names_option_and_command(self, capsys, tmp_path, source):
        # A simulated cell is its periodic orbit, which has no cycle count:
        # argparse refuses the flag, and the config key is unknown to map.
        argv = ["map", "--device", "10F", "--method", "simulated", "--levels", "0,0.5,1",
                "--out", str(tmp_path / "m")]
        if source == "flag":
            with pytest.raises(SystemExit) as info:
                main(argv + ["--sim-cycles", "0"])
            assert info.value.code == 2
            assert "unrecognized arguments: --sim-cycles 0" in capsys.readouterr().err
        else:
            code, _, err = run(capsys, *argv, "--config",
                               write_config(tmp_path, {"sim-cycles": 0}))
            assert_rejected(code, err, "unknown keys for map: ['sim-cycles']")
        assert not (tmp_path / "m.csv").exists()


class TestOptimize:
    def test_analytic_result(self, capsys):
        code, stdout, _ = run(capsys, "optimize", "--min-energy", "0.75")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["vm_pu"] == pytest.approx(0.5, abs=1e-12)
        assert doc["vM_pu"] == 1.0
        assert doc["rest"] is False

    def test_infeasible_exit_4(self, capsys):
        code, _, err = run(capsys, "optimize", "--min-energy", "1.5")
        assert code == 4
        assert "error:" in err

    def test_with_rest_file_output(self, capsys, tmp_path):
        out = tmp_path / "opt.json"
        code, _, _ = run(
            capsys, "optimize", "--min-energy", "0.5", "--rest",
            "--device", "50F", "--out", str(out),
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rest"] is True
        assert doc["energy_fraction"] >= 0.5

    def test_boundary_scan_when_analytic_point_infeasible(self, capsys):
        # at 15 A the 10F device's drops rule out vM = 1 at this fraction, so
        # the best window on the energy-fraction boundary lies below it
        code, stdout, err = run(
            capsys, "optimize", "--device", "10F", "--current", "15",
            "--min-energy", "0.3",
        )
        assert code == 0, err
        doc = json.loads(stdout)
        assert doc["vm_pu"] == 0.2702983815708894
        assert doc["vM_pu"] == 0.6107873730520648
        code, _, err = run(
            capsys, "optimize", "--device", "10F", "--current", "15",
            "--min-energy", "0.1",
        )
        assert code == 4
        assert "no window on the energy-fraction boundary 0.1 is feasible" in err

    def test_ideal_is_not_an_option(self, capsys, tmp_path):
        # ideal changed nothing: the objective reads c_main, r_series, v_rated
        cfg = write_config(tmp_path, {"ideal": False, "min-energy": 0.5})
        code, _, err = run(capsys, "optimize", "--config", cfg)
        assert code == 2
        assert "unknown keys for optimize: ['ideal']" in err
        with pytest.raises(SystemExit) as exc:
            run(capsys, "optimize", "--min-energy", "0.5", "--ideal")
        assert exc.value.code == 2


class TestFitSelfDischarge:
    def test_embedded_fit(self, capsys):
        code, stdout, _ = run(capsys, "fit-selfdischarge")
        assert code == 0
        doc = json.loads(stdout)
        assert doc["slope_sd_mV_per_V"] == pytest.approx(54.421228, abs=1e-6)
        assert doc["fit_quality"] == pytest.approx(0.977772, abs=1e-6)
        assert doc["source"] == "embedded"

    def test_custom_rows_rank_deficient_exit_4(self, capsys, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text(
            "# columns: span_V, vm_V, vM_V, v_sd_mV, v_sc_mV\n"
            "1.0,0.0,1.0,50,40\n1.0,0.5,1.5,52,41\n1.0,1.0,2.0,51,42\n"
        )
        code, _, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
        assert code == 4
        assert "error:" in err

    def test_bad_rows_exit_3(self, capsys, tmp_path):
        rows = tmp_path / "rows.csv"
        rows.write_text("1.0,0.0,1.0,50\n")
        code, _, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
        assert code == 3
        assert "line 1" in err
        good = "0.3,0.0,0.3,20,15\n0.9,0.0,0.9,50,40\n"
        for bad in ("1.5,0.0,1.5,nan,60", "1.5,0.0,inf,80,60", "1.5,-inf,1.5,80,60"):
            rows.write_text(good + bad + "\n2.1,0.0,2.1,120,95\n")
            code, out, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
            assert code == 3, bad
            assert "line 3" in err and "non-finite" in err, err
            assert out == ""

    @pytest.mark.parametrize("bad, says", [
        ("abc,0.0,0.3,20,15", "could not convert string to float: 'abc'"),
        ("nan,0.0,0.9,50,40", "non-finite value"),
        ("9.9,0.0,1.5,80,60", "span_V 9.9 differs from vM_V - vm_V = 1.5"),
    ], ids=["non-numeric", "nan", "mismatch"])
    def test_bad_span_exit_3(self, capsys, tmp_path, bad, says):
        # the span_V column used to go unread, so each of these rows was fitted
        rows = tmp_path / "rows.csv"
        rows.write_text(f"0.3,0.0,0.3,20,15\n0.9,0.0,0.9,50,40\n{bad}\n2.1,0.0,2.1,120,95\n")
        code, out, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
        assert code == 3, err
        assert err.startswith("error: line 3: ") and says in err, err
        assert out == ""

    def test_span_within_three_roundings_accepted(self, capsys, tmp_path):
        # The embedded 1.22,0.68,1.89 row is 0.010 V off; 0.015 V is the limit.
        rows = tmp_path / "rows.csv"
        rows.write_text("0.3,0.0,0.3,20,15\n0.91,0.0,0.9,50,40\n2.085,0.0,2.1,120,95\n")
        code, _, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
        assert code == 0, err
        rows.write_text("0.3,0.0,0.3,20,15\n0.9,0.0,0.9,50,40\n2.12,0.0,2.1,120,95\n")
        code, _, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
        assert code == 3 and "line 3" in err, err

    def test_rows_lines_are_stripped(self, capsys, tmp_path):
        # unlike a trace, a rows file strips each line and skips # comments
        rows = tmp_path / "rows.csv"
        rows.write_text("0.3,0.0,0.3,20,15\n   \n  # c\n0.9,0.0,0.9,50,40\n"
                        " 2.1 ,0.0,2.1,120,95 \n")
        code, out, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
        assert code == 0, err
        assert json.loads(out)["n_rows"] == 3

    @pytest.mark.parametrize("sep", ["\x0c", "\x1c", "\x85", "\u2028"],
                             ids=["x0c", "x1c", "x85", "u2028"])
    def test_rows_line_numbers_count_as_read_utf8(self, capsys, tmp_path, sep):
        # only LF, CRLF and a lone CR end a line, as in read_utf8's own errors;
        # str.splitlines() would also break at sep and call the bad row line 4
        rows = tmp_path / "rows.csv"
        rows.write_bytes(f"0.3,0.0,0.3,20,15{sep}\n0.9,0.0,0.9,50,40\n"
                         "abc,0.0,1.5,80,60\n2.1,0.0,2.1,120,95\n".encode())
        code, out, err = run(capsys, "fit-selfdischarge", "--rows", str(rows))
        assert (code, out) == (3, "")
        assert err == "error: line 3: could not convert string to float: 'abc'\n"


class TestIecCurrent:
    def test_derived_resistance_value(self, capsys):
        code, stdout, _ = run(capsys, "iec-current", "--r", "0.0306",
                              "--target", "0.95")
        assert code == 0
        assert round(float(stdout), 2) == 1.13

    def test_device_form(self, capsys):
        code, stdout, _ = run(capsys, "iec-current", "--device", "50F")
        assert code == 0
        assert float(stdout) == pytest.approx(3.95, rel=1e-9)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_device_refuses_v_rated(self, capsys, tmp_path, source):
        # the device's own rating wins, so --v-rated used to change nothing
        argv = ["iec-current", "--device", "10F"]
        if source == "flag":
            argv += ["--v-rated", "5"]
        else:
            argv += ["--config", write_config(tmp_path, {"v-rated": 5})]
        code, stdout, err = run(capsys, *argv)
        assert_rejected(code, err, "--v-rated")
        assert stdout == ""

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run(capsys, "iec-current")
        assert code == 2
        code, _, _ = run(capsys, "iec-current", "--r", "0.01", "--device", "50F")
        assert code == 2


class TestFixturesExport:
    def test_exports_all_tables(self, capsys, tmp_path):
        code, stdout, _ = run(capsys, "fixtures", str(tmp_path / "fx"))
        assert code == 0
        for name in ("table1", "table2", "table3", "table4"):
            assert (tmp_path / "fx" / f"{name}.csv").exists()
            assert name in stdout


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "device": "10F",
            "ideal": True,
            "current": 0.4,
            "vmin": 0.5,
            "vmax": 2.5,
            "cycles": 1,
        }))
        out = tmp_path / "c.csv"
        code, _, _ = run(
            capsys, "simulate", "--config", str(cfg), "--cycles", "2",
            "--out", str(out),
        )
        assert code == 0
        side = read_sidecar_csv(tmp_path / "c.cycles.csv")
        assert side[-1].cycle == 2  # the flag overrode the config's 1

    def test_wrong_schema_version_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 99, "cycles": 1}))
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--out", "x.csv",
        )
        assert code == 2
        assert "schema_version" in err

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"schema_version": 1, "wattage": 5}))
        code, _, err = run(
            capsys, "simulate", "--config", str(cfg), "--out", "x.csv",
        )
        assert code == 2
        assert "wattage" in err

    def test_malformed_json_exit_3(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        code, _, _ = run(
            capsys, "simulate", "--config", str(cfg), "--out", "x.csv",
        )
        assert code == 3


# Config keys of every command with their kinds; flags are ``--<key>``.
CONFIG_KEYS = {
    "simulate": {
        "device": "str", "ideal": "bool", "current": "float", "vmin": "float",
        "vmax": "float", "rest": "float", "rest-high": "float",
        "rest-low": "float", "cycles": "int",
        "sample-period": "float", "quantize": "bool", "out": "str",
    },
    "analyze": {
        "trace": "str", "threshold-frac": "float", "min-segment": "float",
        "steady-tol": "float", "out": "str",
    },
    "map": {
        "device": "str", "ideal": "bool", "current": "float", "method": "str",
        "fixture": "str", "rest": "float", "levels": "levels", "out": "str",
    },
    "optimize": {
        "device": "str", "current": "float", "min-energy": "float",
        "rest": "bool", "out": "str",
    },
    "fit-selfdischarge": {"rows": "str", "out": "str"},
    "iec-current": {
        "r": "float", "device": "str", "target": "float", "vmin-pu": "float",
        "vmax-pu": "float", "v-rated": "float",
    },
}

def required_config(command, tmp_path):
    """Config values that satisfy ``command``'s required options."""
    return {
        "simulate": {"out": str(tmp_path / "x.csv")},
        "analyze": {"trace": str(tmp_path / "x.csv")},
        "map": {"out": str(tmp_path / "m")},
        "optimize": {"min-energy": 0.5},
    }.get(command, {})


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"schema_version": 1, **doc}))
    return str(path)


def assert_rejected(code, err, field):
    assert code == 2, err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert field in err
    assert "Traceback" not in err


class TestOptionTable:
    def test_keys_and_flags_per_command(self):
        from capcycle.cli import COMMANDS

        for command, keys in CONFIG_KEYS.items():
            options = COMMANDS[command].options
            assert {o.name: o.kind for o in options} == keys
        assert set(COMMANDS) == {*CONFIG_KEYS, "fixtures"}
        assert sum(map(len, CONFIG_KEYS.values())) == 38

    @pytest.mark.parametrize("kind, value, expected", [
        ("float", 2, 2.0),
        ("float", "1e-3", 1e-3),
        ("int", "3", 3),
        ("int", 3.0, 3),
        ("bool", False, False),
        ("levels", "0, 0.5,1", (0.0, 0.5, 1.0)),
        ("levels", [0, "0.5", 1], (0.0, 0.5, 1.0)),
    ])
    def test_coercion_accepts(self, kind, value, expected):
        from capcycle.cli import coerce

        result = coerce(kind, value, "x")
        assert result == expected and type(result) is type(expected)

    def test_null_falls_back_to_default(self, capsys, tmp_path):
        nulls = {k: None for k in CONFIG_KEYS["simulate"] if k != "out"}
        cfg = write_config(tmp_path, {**nulls, "out": str(tmp_path / "a.csv")})
        assert run(capsys, "simulate", "--config", cfg)[0] == 0
        assert run(capsys, "simulate", "--out", str(tmp_path / "b.csv"))[0] == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


_DEVICE = {"c_main": 10.0, "r_series": 0.03,
           "redistribution": {"c_branch": 2.0, "r_branch": 5.0}}


# Each input once ended in a raw traceback (exit 1) or was silently misread.
@pytest.mark.parametrize("argv, config, device, field", [
    (["simulate", "--out", "x.csv"], {"cycles": "abc"}, None, "cycles"),
    (["simulate", "--out", "x.csv"], {"device": 5}, None, "device"),
    (["analyze"], {"trace": 5}, None, "trace"),
    (["simulate"], {"out": ["a"]}, None, "out"),
    (["map", "--out", "m"], {"levels": 5}, None, "levels"),
    (["map", "--out", "m", "--levels", "0,0.5,abc"], None, None, "levels"),
    (["simulate", "--out", "x.csv"], {"ideal": "false"}, None, "ideal"),
    (["optimize", "--min-energy", "0.5"], {"rest": "yes"}, None, "rest"),
    (["simulate", "--out", "x.csv"], {"cycles": 2.5}, None, "cycles"),
    (["simulate", "--current", "0.4", "--out", "x.csv"], None,
     {"c_main": "x", "r_series": 0.03}, "c_main"),
    (["simulate", "--current", "0.4", "--out", "x.csv"], None,
     {**_DEVICE, "redistribution": {"c_branch": "q", "r_branch": 5.0}}, "c_branch"),
])
def test_bad_option_value_exit_2(capsys, tmp_path, monkeypatch, argv, config, device, field):
    monkeypatch.chdir(tmp_path)
    argv = list(argv)
    if config is not None:
        argv += ["--config", write_config(tmp_path, config)]
    if device is not None:
        (tmp_path / "dev.json").write_text(json.dumps(device))
        argv += ["--device", "dev.json"]
    code, _, err = run(capsys, *argv)
    assert_rejected(code, err, field)
    assert not (tmp_path / "x.csv").exists()


_TEXT = st.text(alphabet="xyz ", min_size=1, max_size=4)
_NOT_NUMBER = st.one_of(
    st.booleans(), _TEXT, st.lists(st.integers(), max_size=2),
    st.dictionaries(_TEXT, st.integers(), max_size=2),
    st.sampled_from([math.inf, -math.inf, math.nan, "nan", "-inf"]),
)
_WRONG = {
    "float": _NOT_NUMBER,
    "int": st.one_of(
        _NOT_NUMBER, st.floats(-1e6, 1e6).filter(lambda x: not x.is_integer())
    ),
    "bool": st.one_of(st.integers(), st.floats(allow_nan=False), _TEXT,
                      st.lists(st.booleans(), max_size=2)),
    "str": st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                     st.lists(_TEXT, max_size=2),
                     st.dictionaries(_TEXT, _TEXT, max_size=2)),
    "levels": st.one_of(st.booleans(), st.integers(), st.floats(allow_nan=False),
                        st.dictionaries(_TEXT, st.integers(), max_size=2),
                        st.lists(st.one_of(st.booleans(), _TEXT), min_size=1,
                                 max_size=3)),
}
_CONFIG_CASES = [(c, k) for c, keys in CONFIG_KEYS.items() for k in keys]
_DEVICE_FIELDS = ["c_main", "r_series", "v_rated", "r_leak",
                  "redistribution.c_branch", "redistribution.r_branch"]
_FUZZ = settings(max_examples=200, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(case=st.sampled_from(_CONFIG_CASES), data=st.data())
def test_fuzz_wrong_typed_config_value_exit_2(capsys, tmp_path, case, data):
    command, key = case
    value = data.draw(_WRONG[CONFIG_KEYS[command][key]], label=key)
    cfg = write_config(tmp_path, {**required_config(command, tmp_path), key: value})
    code, _, err = run(capsys, command, "--config", cfg)
    assert_rejected(code, err, f"{key}:")


@_FUZZ
@given(field=st.sampled_from(_DEVICE_FIELDS), value=_NOT_NUMBER)
def test_fuzz_wrong_typed_device_field_exit_2(capsys, tmp_path, field, value):
    doc = json.loads(json.dumps(_DEVICE))
    parent, _, key = field.rpartition(".")
    (doc[parent] if parent else doc)[key] = value
    device = tmp_path / "dev.json"
    device.write_text(json.dumps(doc))
    code, _, err = run(capsys, "simulate", "--device", str(device),
                       "--current", "0.4", "--out", str(tmp_path / "x.csv"))
    assert_rejected(code, err, f"{key}:")


@_FUZZ
@given(value=st.one_of(st.booleans(), st.integers(), _TEXT,
                       st.lists(st.integers(), max_size=2)))
def test_fuzz_wrong_typed_redistribution_exit_2(capsys, tmp_path, value):
    device = tmp_path / "dev.json"
    device.write_text(json.dumps({**_DEVICE, "redistribution": value}))
    code, _, err = run(capsys, "simulate", "--device", str(device),
                       "--current", "0.4", "--out", str(tmp_path / "x.csv"))
    assert_rejected(code, err, "redistribution")


class TestBudgets:
    def test_sample_budget_refused_before_allocation(self, capsys, tmp_path,
                                                      monkeypatch):
        # Without the preflight check this run asks for ~9 GB of buffers; the
        # guard turns any such request into a test failure instead.
        empty = np.empty

        def guarded(shape, *args, **kwargs):
            assert np.prod(shape) <= 1 << 26, f"tried to allocate {shape}"
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", guarded)
        code, _, err = run(capsys, "simulate", "--sample-period", "1e-7",
                           "--out", str(tmp_path / "x.csv"))
        assert_rejected(code, err, "samples")

    def test_step_budget_refused_before_stepping(self, capsys, tmp_path, monkeypatch):
        # A 1e-7-ohm branch takes 11,000,000 internal steps per 0.1-s sample,
        # so one cycle is few samples but billions of steps.
        def refuse(*args, **kwargs):
            raise AssertionError("the simulator stepped a run over the step cap")

        monkeypatch.setattr(simulator, "run_phase", refuse)
        device = tmp_path / "d.json"
        device.write_text(json.dumps({"c_main": 50, "r_series": 0.0088, "v_rated": 2.7,
                                      "redistribution": {"c_branch": 5, "r_branch": 1e-7}}))
        start = time.perf_counter()
        code, _, err = run(capsys, "simulate", "--device", str(device), "--current", "3.95",
                           "--cycles", "1", "--out", str(tmp_path / "x.csv"))
        assert time.perf_counter() - start < 1.0
        assert_rejected(code, err, "internal steps")
        assert err == (
            "error: the run needs about 7,325,387,342 internal steps, 11,000,000 a sample "
            "for the redistribution branch, more than the 33,554,432 cap; use shorter "
            "rests, a larger current or fewer cycles\n")
        assert not (tmp_path / "x.csv").exists()
        assert simulator.MAX_STEPS >= simulator.MAX_SAMPLES

    def test_simulated_map_cell_sample_budget(self, capsys, tmp_path, monkeypatch):
        # A map cell neither samples nor steps, so it needs no sample budget:
        # a mistyped 1e6-s rest costs what a short one does.  It sags every
        # cell below its discharge limit, so no cell is defined.
        def refuse(*args, **kwargs):
            raise AssertionError("a map cell stepped the simulator")

        monkeypatch.setattr(simulator, "run_phase", refuse)
        code, _, err = run(capsys, "map", "--method", "simulated", "--rest", "1e6",
                           "--out", str(tmp_path / "m"))
        assert_rejected(code, err, "grid must have defined cells")
        assert not (tmp_path / "m.csv").exists()

    def test_grid_level_budget(self, capsys, tmp_path):
        levels = ",".join(f"{k / 1024:g}" for k in range(1025))
        code, _, err = run(capsys, "map", "--levels", levels,
                           "--out", str(tmp_path / "m"))
        assert_rejected(code, err, "1025 grid levels")


# Each file kind once ended in a raw UnicodeDecodeError traceback (exit 1).
_UTF8_FILES = {
    "trace": "t_s,v_V,i_A\n0.1,0.5,0.4\n0.2,0.6,0.4\n",
    "config": '{\n"schema_version": 1,\n"cycles": 1\n}\n',
    "device": '{\n"c_main": 10.0,\n"r_series": 0.03\n}\n',
    "rows": "# span_V, vm_V, vM_V, v_sd_mV, v_sc_mV\n0.27,2.43,2.70,21,14\n",
}


def _argv(kind, path, tmp_path):
    out = str(tmp_path / "x.csv")
    return {
        "trace": ["analyze", path],
        "config": ["simulate", "--config", path, "--out", out],
        "device": ["simulate", "--device", path, "--current", "0.4", "--out", out],
        "rows": ["fit-selfdischarge", "--rows", path],
    }[kind]


@settings(_FUZZ, max_examples=80)
@given(kind=st.sampled_from(sorted(_UTF8_FILES)), data=st.data(),
       bad=st.sampled_from([b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xc0\xaf"]))
def test_fuzz_non_utf8_file_exit_3(capsys, tmp_path, kind, data, bad):
    content = _UTF8_FILES[kind].encode()
    at = data.draw(st.integers(0, len(content)), label="at")
    path = tmp_path / f"{kind}.in"
    path.write_bytes(content[:at] + bad + content[at:])
    code, _, err = run(capsys, *_argv(kind, str(path), tmp_path))
    line_no = content[:at].count(b"\n") + 1
    assert code == 3, err
    assert err.startswith(f"error: line {line_no}: {path} is not UTF-8 (")
    assert err.count("\n") == 1


def test_non_utf8_sidecar_names_path(tmp_path):
    from capcycle.errors import TraceParseError

    path = tmp_path / "run.cycles.csv"
    path.write_bytes(b"cycle,phase,t_start_s,t_end_s\n1,charge\xff,0,1\n")
    with pytest.raises(TraceParseError, match=f"line 2: {path} is not UTF-8"):
        read_sidecar_csv(path)
