import argparse
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import centrolab as cl
from centrolab import cli, fluctuation, io
from centrolab.cli import EXIT_SOLVER, _COMMANDS, SETTINGS, _configure, main, parse_config_file

from _helpers import loads_strict, multiset_gap


def run(args) -> int:
    return main([str(a) for a in args])


def read_spectrum(path) -> np.ndarray:
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return np.array([complex(float(re), float(im)) for re, im in rows])


class TestSample:
    def test_writes_exactly_symmetric_matrix(self, tmp_path):
        assert run(["sample", "--n", 4, "--seed", 7, "--out", tmp_path]) == 0
        back = io.read_matrix_csv(tmp_path / "matrix_n4_gaussian_seed7.csv")
        assert cl.assert_centrosymmetric(back, tol=0.0)

    def test_repeat_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(["sample", "--n", 5, "--seed", 3, "--out", a])
        run(["sample", "--n", 5, "--seed", 3, "--out", b])
        name = "matrix_n5_gaussian_seed3.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_zero_order_is_config_error(self, capsys):
        assert run(["sample", "--n", 0]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        assert run(["sample", "--n", 2, "--out", blocker / "sub"]) == 2


class TestSpectrum:
    def test_two_by_two_matches_quadratic_roots(self, tmp_path):
        assert run(["spectrum", "--n", 2, "--seed", 11, "--out", tmp_path]) == 0
        lines = (tmp_path / "spectrum_n2_gaussian_seed11.csv").read_text().splitlines()
        assert lines[0] == "re,im"
        got = sorted(float(line.split(",")[0]) for line in lines[1:])
        m = cl.sample_centro(2, "gaussian", 11).entries
        expected = sorted([m[0, 0] + m[0, 1], m[0, 0] - m[0, 1]])
        assert got == pytest.approx(expected, abs=1e-10)

    def test_row_count_and_radial_json(self, tmp_path):
        run(["spectrum", "--n", 30, "--seed", 4, "--out", tmp_path])
        lines = (tmp_path / "spectrum_n30_gaussian_seed4.csv").read_text().splitlines()
        assert len(lines) == 31
        payload = json.loads((tmp_path / "radial_n30_gaussian_seed4.json").read_text())
        assert payload["converged"] is True
        blocks = cl.weaver_blocks(cl.sample_centro(30, "gaussian", 4))
        assert payload["exceptional_shifts"] == sum(
            cl.eigenvalues(b).exceptional_shifts for b in (blocks.plus, blocks.minus)
        )
        assert list(payload["radial_cdf"]) == ["0.25", "0.5", "0.75", "1.0", "1.05"]

    def test_trace_residuals_are_small(self, tmp_path):
        assert run(["spectrum", "--n", 30, "--seed", 4, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "radial_n30_gaussian_seed4.json").read_text())
        residuals = payload["trace_residuals"]
        assert list(residuals) == ["1", "2", "3"]
        assert all(0.0 <= r < 1e-8 * 30 for r in residuals.values())
        # bitwise the dense reference's residuals
        m = cl.sample_centro(30, "gaussian", 4)
        blocks = cl.weaver_blocks(m)
        values = np.concatenate([s.values for s in cl.spectra([blocks.plus, blocks.minus])])
        for k in (1, 2, 3):
            assert residuals[str(k)] == abs(np.sum(values**k) - cl.trace_power(m, k))

    def test_rows_list_plus_block_then_minus_block(self, tmp_path):
        assert run(["spectrum", "--n", 9, "--seed", 2, "--out", tmp_path]) == 0
        blocks = cl.weaver_blocks(cl.sample_centro(9, "gaussian", 2))
        expected = np.concatenate(
            [cl.eigenvalues(blocks.plus).values, cl.eigenvalues(blocks.minus).values]
        )
        assert np.array_equal(read_spectrum(tmp_path / "spectrum_n9_gaussian_seed2.csv"), expected)

    @pytest.mark.parametrize("dist", ["gaussian", "uniform"])
    @pytest.mark.parametrize("n", [*range(1, 13), 31])
    def test_block_route_matches_full_solve(self, n, dist, tmp_path):
        assert run(["spectrum", "--n", n, "--dist", dist, "--seed", n, "--out", tmp_path]) == 0
        got = read_spectrum(tmp_path / f"spectrum_n{n}_{dist}_seed{n}.csv")
        full = cl.eigenvalues(cl.sample_centro(n, dist, n).entries)
        assert got.size == n
        assert multiset_gap(got, full.values) < 1e-10

    def test_unconverged_block_exits_3_with_full_output(self, tmp_path, monkeypatch, capsys):
        calls = []

        def minus_block_stalls(mats):
            calls.append([m.shape[0] for m in mats])
            plus, _ = cl.spectra(mats)
            return [plus, cl.eigenvalues(mats[1], max_sweeps=0)]

        monkeypatch.setattr(cli, "spectra", minus_block_stalls)
        assert main(["spectrum", "--n", "12", "--seed", "3", "--out", str(tmp_path)]) == EXIT_SOLVER
        assert calls == [[6, 6]]
        assert capsys.readouterr().err.startswith("solver error:")
        payload = json.loads((tmp_path / "radial_n12_gaussian_seed3.json").read_text())
        assert payload["converged"] is False
        assert read_spectrum(tmp_path / "spectrum_n12_gaussian_seed3.csv").size == 12

    def test_overflowed_eigenvalue_exits_3_with_full_output(self, tmp_path, monkeypatch, capsys):
        # a finite draw whose plus block has the eigenvalue 2e308
        monkeypatch.setattr(cli, "sample_centro", lambda n, dist, seed: np.full((n, n), 5e307))
        assert main(["spectrum", "--n", "4", "--out", str(tmp_path)]) == EXIT_SOLVER
        err = capsys.readouterr().err
        assert err.startswith("solver error:") and "overflow" in err
        payload = loads_strict((tmp_path / "radial_n4_gaussian_seed1.json").read_text())
        assert payload["converged"] is False
        assert None in payload["trace_residuals"].values()
        values = read_spectrum(tmp_path / "spectrum_n4_gaussian_seed1.csv")
        assert values.tolist() == [math.inf, 0.0, 0.0, 0.0]


class TestClt:
    def test_report_keys_and_theoretical_variance(self, tmp_path):
        code = run(
            [
                "clt",
                "--n", 24,
                "--trials", 16,
                "--f", "0,0,1,0,0,4",
                "--seed", 5,
                "--out", tmp_path,
            ]
        )
        assert code == 0
        payload = json.loads((tmp_path / "clt_n24_gaussian_seed5.json").read_text())
        assert set(payload) == {
            "n",
            "trials",
            "dist",
            "seed",
            "f",
            "empirical_variance",
            "theoretical_variance",
            "ks",
            "runtime_seconds",
        }
        assert payload["theoretical_variance"] == 164.0
        assert (tmp_path / "clt_n24_gaussian_seed5_hist.csv").exists()

    def test_single_trial_is_config_error(self):
        assert run(["clt", "--n", 8, "--trials", 1, "--f", "0,1"]) == 1

    def test_missing_polynomial_is_config_error(self):
        assert run(["clt", "--n", 8, "--trials", 4]) == 1

    def test_worker_count_does_not_change_report(self, tmp_path):
        outs = []
        for threads in (1, 2, 8):
            out = tmp_path / f"t{threads}"
            run(
                [
                    "clt",
                    "--n", 20,
                    "--trials", 12,
                    "--f", "0,0,1",
                    "--seed", 9,
                    "--threads", threads,
                    "--out", out,
                ]
            )
            payload = json.loads((out / "clt_n20_gaussian_seed9.json").read_text())
            payload.pop("runtime_seconds")
            outs.append(payload)
        assert outs[0] == outs[1] == outs[2]

    def test_heavy_tailed_sample_caps_histogram_bins(self, tmp_path):
        # f = z^20 at n = 1: Freedman-Diaconis alone asks for ~1e10 bins
        f = ",".join(["0"] * 20 + ["1"])
        code = run(["clt", "--n", 1, "--trials", 1000, "--f", f, "--out", tmp_path])
        assert code == 0
        rows = (tmp_path / "clt_n1_gaussian_seed1_hist.csv").read_text().splitlines()[1:]
        assert 1 <= len(rows) <= 1000
        assert sum(int(row.split(",")[2]) for row in rows) == 1000


    def test_huge_coefficient_reports_the_unit_ks(self, tmp_path):
        # the samples are 1e153 times those of f = z: their squares overflow
        ks = []
        for f in ("0,1", "0,1e153"):
            out = tmp_path / f
            assert run(["clt", "--n", 2, "--trials", 750, "--f", f, "--out", out]) == 0
            ks.append(json.loads((out / "clt_n2_gaussian_seed1.json").read_text())["ks"])
        assert ks[1] == ks[0] < 0.1

    def test_tiny_coefficient_runs(self, tmp_path):
        # the samples' squares underflow to zero
        assert run(["clt", "--n", 3, "--trials", 3, "--f", "0,1e-200", "--out", tmp_path]) == 0
        assert (tmp_path / "clt_n3_gaussian_seed1.json").exists()


class TestMoments:
    def test_rows_collapsed_to_ordered_pairs(self, tmp_path):
        assert (
            run(
                [
                    "moments",
                    "--n", 16,
                    "--trials", 20,
                    "--kmax", 3,
                    "--seed", 2,
                    "--out", tmp_path,
                ]
            )
            == 0
        )
        payload = json.loads((tmp_path / "moments_n16_gaussian_seed2.json").read_text())
        pairs = [(r["k"], r["l"]) for r in payload["rows"] if r["l"] is not None]
        assert all(k <= l for k, l in pairs)
        assert len(pairs) == 6
        assert all(r["flag"] in {"PASS", "FAIL"} for r in payload["rows"])

    def test_kmax_one_is_config_error(self):
        assert run(["moments", "--n", 8, "--trials", 4, "--kmax", 1]) == 1


ORACLE_GRID_CSV = """\
n,k,l,value,terms
5,2,,1.8,25
5,3,,0,125
5,4,,3.3199999999999998,625
5,2,2,7.1600000000000001,625
5,2,3,0,3125
5,3,2,0,3125
5,3,3,9.1440000000000001,15625
5,4,2,12.728,15625
5,4,3,0,78125
6,2,,2,36
6,3,,0,216
6,4,,3.3333333333333335,1296
6,2,2,8,1296
6,2,3,0,7776
6,3,2,0,7776
6,3,3,8.6666666666666661,46656
6,4,2,12.888888888888889,46656
6,4,3,0,279936
7,2,,1.8571428571428572,49
7,3,,0,343
7,4,,3,2401
7,2,2,7.408163265306122,2401
7,2,3,0,16807
7,3,2,0,16807
7,3,3,7.7055393586005829,117649
7,4,2,10.364431486880466,117649
7,4,3,0,823543
"""


class TestOracle:
    def test_grid_rows(self, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("n_list = 2,3,4\nk_list = 2,4\n")
        assert run(["oracle", "--config", cfg, "--out", tmp_path]) == 0
        lines = (tmp_path / "oracle_table.csv").read_text().splitlines()
        assert lines[0] == "n,k,l,value,terms"
        assert len(lines) == 7

    def test_odd_k_rows_exactly_zero(self, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("n_list = 2,3,4\nk_list = 3,5\n")
        run(["oracle", "--config", cfg, "--out", tmp_path])
        for line in (tmp_path / "oracle_table.csv").read_text().splitlines()[1:]:
            assert line.split(",")[3] == "0"

    def test_grid_table_bytes_pinned(self, tmp_path):
        # the benchmark's oracle grid: single and double chains, odd and
        # even widths; pruning the orbit walk must not move a byte
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("n_list = 5,6,7\nk_list = 2,3,4\nl_list = 2,3\n")
        assert run(["oracle", "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "oracle_table.csv").read_bytes() == ORACLE_GRID_CSV.encode()

    def test_budget_counts_representatives_not_tuples(self, tmp_path):
        # 10^10 index tuples, but only 257 orbit representatives to budget
        # for (and none evaluated: every chain of odd width has a zero term)
        assert run(["oracle", "--n_list", 100, "--k_list", 5, "--out", tmp_path]) == 0
        rows = (tmp_path / "oracle_table.csv").read_text().splitlines()
        assert rows[1] == "100,5,,0,10000000000"

    @pytest.mark.parametrize("n_list", ["20,21", "4,20", "20,22"])
    def test_budget_checked_in_grid_order(self, tmp_path, capsys, n_list):
        # one walk per parity runs at the largest order, but the error still
        # names the first grid point past the budget, and no table is written
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text(f"n_list = {n_list}\nk_list = 12\n")
        assert run(["oracle", "--config", cfg, "--out", tmp_path / "out"]) == 4
        err = capsys.readouterr().err
        assert "for n=20, k=12 needs 487026796 orbit representatives" in err
        assert not (tmp_path / "out" / "oracle_table.csv").exists()

    def test_budget_exceeded_names_tuple(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("n_list = 20\nk_list = 12\n")
        assert run(["oracle", "--config", cfg, "--out", tmp_path]) == 4
        err = capsys.readouterr().err
        assert "n=20" in err and "k=12" in err

    def test_budget_exceeded_names_both_lengths(self, tmp_path, capsys):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("n_list = 20\nk_list = 6\nl_list = 6\nbudget = 10000000\n")
        assert run(["oracle", "--config", cfg, "--out", tmp_path]) == 4
        err = capsys.readouterr().err
        assert "for n=20, k=6, l=6 needs 487026796 orbit representatives" in err


class TestVariance:
    def test_linear_report(self, tmp_path):
        assert run(["variance", "--f", "0,1", "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / "variance_report.json").read_text())
        assert payload["closed_form"] == 2.0
        assert payload["discrepancy"]["diagonal"] < 1e-10
        assert payload["discrepancy"]["full"] != 0.0

    def test_figure_polynomial_closed_form(self, tmp_path):
        run(["variance", "--f", "0,0,1,0,0,4", "--out", tmp_path])
        payload = json.loads((tmp_path / "variance_report.json").read_text())
        assert payload["closed_form"] == 164.0

    def test_quadrature_settings_stated_once(self, tmp_path):
        run(["variance", "--f", "0,0,1,0,0,4", "--nodes", 12, "--out", tmp_path])
        payload = json.loads((tmp_path / "variance_report.json").read_text())
        assert payload["nodes"] == 12
        assert payload["radius"] == 1.5
        for entry in payload["quadrature"].values():
            assert set(entry) == {"value_re", "value_im"}

    def test_radius_below_one_is_config_error(self):
        assert run(["variance", "--f", "0,1", "--radius", 0.5]) == 1


class TestConfigFile:
    def test_parse_with_comments_and_spacing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# experiment configuration\n"
            "n = 12\n"
            "trials = 8   # inline comment\n"
            "f = 0,0,1\n"
            "dist = uniform\n"
        )
        values = parse_config_file(cfg)
        assert values == {"n": 12, "trials": 8, "f": [0.0, 0.0, 1.0], "dist": "uniform"}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order = 12\n")
        assert run(["clt", "--config", cfg, "--f", "0,1"]) == 1

    def test_bad_value_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = twelve\n")
        assert run(["clt", "--config", cfg, "--f", "0,1"]) == 1

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nseed = 1\n")
        run(["sample", "--config", cfg, "--n", 3, "--out", tmp_path])
        assert (tmp_path / "matrix_n3_gaussian_seed1.csv").exists()

    def test_missing_config_file_is_config_error(self, tmp_path):
        assert run(["sample", "--config", tmp_path / "absent.cfg"]) == 1


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["clt", "--n", "abc", "--f", "0,1"], id="clt-n-not-int"),
            pytest.param(["spectrum", "--dist", "cauchy"], id="unknown-dist"),
            pytest.param(
                ["clt", "--n", "4", "--trials", "3", "--f", "0,1", "--dist", "cauchy"],
                id="clt-unknown-dist",
            ),
            pytest.param(
                ["moments", "--n", "4", "--trials", "3", "--dist", "cauchy"],
                id="moments-unknown-dist",
            ),
            pytest.param(["sample", "--bogus", "1"], id="unknown-flag"),
            pytest.param([], id="no-command"),
            pytest.param(["bogus"], id="unknown-command"),
            pytest.param(["orac"], id="abbreviated-command"),
            pytest.param(["--n", "3"], id="flag-before-command"),
            pytest.param(["sample", "--n", "2", "--seed", "-1"], id="sample-negative-seed"),
            pytest.param(["spectrum", "--n", "2", "--seed", "-1"], id="spectrum-negative-seed"),
            pytest.param(
                ["clt", "--n", "4", "--trials", "3", "--f", "0,1", "--seed", "-1"],
                id="clt-negative-seed",
            ),
            pytest.param(["variance", "--f", "0,1", "--radius", "nan"], id="radius-nan"),
            pytest.param(["variance", "--f", "0,1", "--radius", "inf"], id="radius-inf"),
            pytest.param(["variance", "--f", "0,nan"], id="f-nan"),
            pytest.param(["variance", "--f", "0,1", "--n", "5"], id="flag-not-read"),
            pytest.param(["variance", "--f", "0,1", "--node", "12"], id="abbreviated-flag"),
            pytest.param(["sample", "--n", "2", "--f", "0,0,0"], id="sample-f"),
            pytest.param(["variance", "--f", "0,1e200"], id="variance-coefficient-squared-overflows"),
            pytest.param(
                ["clt", "--n", "1", "--trials", "4", "--f", "0,1e200"],
                id="clt-coefficient-squared-overflows",
            ),
            pytest.param(["variance", "--f", "0,1e154"], id="variance-sum-overflows"),
            pytest.param(
                ["variance", "--f", "0,1", "--radius", "1.0000000001"], id="radius-at-pole"
            ),
            pytest.param(
                ["clt", "--n", "8", "--trials", "4", "--f", "0,0,1", "--seed", str(2**64)],
                id="clt-seed-past-64-bits",
            ),
            pytest.param(
                ["oracle", "--n_list", "30", "--k_list", "40", "--budget", str(10**60)],
                id="oracle-budget-past-int64",
            ),
            pytest.param(["variance", "--f", "1"], id="f-constant"),
            pytest.param(
                ["clt", "--n", "4", "--trials", "3", "--f", "0,1,0"], id="f-zero-leading"
            ),
            pytest.param(
                ["moments", "--n", "2", "--trials", "3", "--kmax", "200"],
                id="moments-statistics-overflow",
            ),
            pytest.param(
                ["clt", "--n", "2", "--trials", "3", "--f", "1e308,1"], id="clt-statistic-overflows"
            ),
            pytest.param(
                ["clt", "--n", "2", "--trials", "3", "--f", "1e200,1"],
                id="clt-samples-all-equal",
            ),
        ],
    )
    def test_exits_1_without_output(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["moments", "--kmax", "2000"], id="moments"),
            pytest.param(["clt", "--f", ",".join(["0"] * 2000 + ["1"])], id="clt-z^2000"),
        ],
    )
    def test_traces_overflowing_in_worker_threads_exit_1(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # one trial per stack, so two worker threads trace; the first trial's
        # eigenvalue 3.17 overflows its 1000th power
        monkeypatch.setattr(fluctuation, "_stack_size", lambda n: 1)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--n", "2", "--trials", "3", "--threads", "2"]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param(b"n = 4\ndist = gau\xdfian\n", id="not-utf8"),
            pytest.param(b"seed = -1\n", id="negative-seed"),
            pytest.param(b"radius = nan\n", id="key-of-another-command"),
            pytest.param(b"out = a\x00b\n", id="nul-in-out"),
        ],
    )
    def test_bad_config_file_exits_1(self, content, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(content)
        assert run(["sample", "--config", cfg, "--n", 2, "--out", tmp_path / "o"]) == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "o").exists()

    def test_help_exits_0_and_lists_only_read_flags(self, capsys):
        for name, (_, keys) in _COMMANDS.items():
            with pytest.raises(SystemExit) as exc:
                main([name, "--help"])
            assert exc.value.code == 0
            flags = set(re.findall(r"--(\w+)", capsys.readouterr().out))
            assert flags == {"help", "config", *keys}, name

    def test_top_level_help_exits_0_and_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(_COMMANDS) + "}" in out
        for name in _COMMANDS:
            assert re.search(rf"^ +{name} +\S", out, re.M), name


class TestSettingsTable:
    def test_commands_reject_keys_they_do_not_read(self):
        assert sum(len(keys) for _, keys in _COMMANDS.values()) == 33
        for name, (_, keys) in _COMMANDS.items():
            for key in set(SETTINGS) - set(keys):
                with pytest.raises(cl.ConfigError, match="unrecognized"):
                    _configure([name, f"--{key}", "2"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["sample", "--n", "3"],
            ["spectrum", "--n", "4"],
            ["clt", "--n", "4", "--trials", "3", "--f", "0,1"],
            ["moments", "--n", "4", "--trials", "3", "--kmax", "2"],
            ["oracle", "--n", "2", "--kmax", "2"],
            ["variance", "--f", "0,1", "--nodes", "8"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_every_key_a_command_takes_is_read(self, argv, tmp_path, capsys):
        handler, cfg = _configure(argv + ["--out", str(tmp_path)])
        read = set()

        class Recording(SimpleNamespace):
            def __getattribute__(self, name):
                read.add(name)
                return super().__getattribute__(name)

        assert handler(Recording(**vars(cfg))) == 0
        assert set(vars(cfg)) <= read

    @pytest.mark.parametrize("name", list(_COMMANDS))
    def test_known_command_builds_only_its_own_parser(self, name, monkeypatch):
        # a call's fixed cost: one subparser, not one per command; an
        # unknown command still builds them all for the error that lists them
        built = []
        add_parser = argparse._SubParsersAction.add_parser

        def record(self, command, **kwargs):
            built.append(command)
            return add_parser(self, command, **kwargs)

        monkeypatch.setattr(argparse._SubParsersAction, "add_parser", record)
        _configure([name])
        assert built == [name]
        with pytest.raises(cl.ConfigError, match="invalid choice: 'orac'"):
            _configure(["orac"])
        assert built[1:] == list(_COMMANDS)

    def test_defaults_pass_their_checks(self):
        for setting in SETTINGS.values():
            assert setting.default is None or setting.check(setting.default)

    def test_oracle_list_flags_match_config_file(self, tmp_path):
        cfg = tmp_path / "oracle.cfg"
        cfg.write_text("n_list = 2,3\nk_list = 2,4\nl_list = 2\n")
        assert run(["oracle", "--config", cfg, "--out", tmp_path / "a"]) == 0
        argv = ["oracle", "--n_list", "2,3", "--k_list", "2,4", "--l_list", "2"]
        assert run(argv + ["--out", tmp_path / "b"]) == 0
        a, b = ((tmp_path / d / "oracle_table.csv").read_bytes() for d in "ab")
        assert a == b

    def test_config_file_may_hold_other_commands_keys(self, tmp_path):
        cfg = tmp_path / "shared.cfg"
        cfg.write_text("n = 3\nseed = 2\nradius = 2.0\nf = 0,1\nbudget = 10\n")
        assert run(["sample", "--config", cfg, "--out", tmp_path]) == 0
        assert (tmp_path / "matrix_n3_gaussian_seed2.csv").exists()


def _is_checked(key, value) -> bool:
    """Unset (None, the command picks its default) or a value that passes its check."""
    return value is None or SETTINGS[key].check(value)


_VALUES = st.one_of(
    st.text(max_size=12),
    st.integers(-2, 3000).map(str),
    st.floats().map(repr),
    st.sampled_from(["gaussian", "uniform", "", "0,1", "1,0,2", "0,0", "nan"]),
    st.lists(st.integers(-1, 9), max_size=4).map(lambda v: ",".join(map(str, v))),
)
_CONFIG_BYTES = st.binary(max_size=40) | st.one_of(
    st.text(max_size=40),
    st.lists(
        st.tuples(st.sampled_from(sorted(SETTINGS)) | st.text(max_size=6), _VALUES), max_size=6
    ).map(lambda rows: "".join(f"{key} = {value}\n" for key, value in rows)),
).map(str.encode)


@settings(max_examples=300, deadline=None)
@given(data=_CONFIG_BYTES)
def test_fuzz_config_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(data)
    try:
        values = parse_config_file(path)
    except cl.ConfigError:
        return
    assert all(key in SETTINGS and _is_checked(key, v) for key, v in values.items())


@settings(max_examples=300, deadline=None)
@given(command=st.sampled_from(sorted(_COMMANDS)), data=st.data())
def test_fuzz_config_assembly(tmp_path_factory, command, data):
    # flags the command reads, other commands' flags and unknown ones; never
    # --help, which exits, or --config with a drawn path, which could name any file
    own = st.sampled_from(_COMMANDS[command][1])
    names = own | st.sampled_from(sorted(SETTINGS)) | st.text(max_size=6).filter(
        lambda s: s.split("=")[0] not in ("help", "config")
    )
    flags = data.draw(st.lists(st.tuples(own | names, _VALUES), max_size=4))
    argv = [command] + [arg for name, value in flags for arg in (f"--{name}", value)]
    config = data.draw(st.none() | _CONFIG_BYTES)
    if config is not None:
        path = tmp_path_factory.getbasetemp() / "fuzz-assembly.cfg"
        path.write_bytes(config)
        argv += ["--config", str(path)]
    try:
        _, cfg = _configure(argv)
    except cl.ConfigError:
        return
    assert set(vars(cfg)) == set(_COMMANDS[command][1])
    assert all(_is_checked(key, value) for key, value in vars(cfg).items())
