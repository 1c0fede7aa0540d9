"""Command-line surface: tables, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import stepharm
from stepharm import (BracketError, PotentialConfig, SingularityError, WavePacketSpec, cli,
                      contour, evolve, measure_delay, scattering, verification)
from stepharm.special import _LANCZOS_COEFFS, _RATIO_SERIES


def run_cli(*argv):
    return cli.main(list(argv))


def read_csv(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestLevels:
    def test_two_rows_at_4_5(self, capsys):
        assert run_cli("levels", "--beta0", "4.5") == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["n", "beta_n", "energy_over_hbar_omega", "k_n", "marginal"]
        assert len(rows) == 2
        assert float(rows[0][1]) == pytest.approx(1.6321923056, abs=1e-9)

    def test_step_height_just_above_odd_integer(self, capsys):
        # the second level sits 6e-14 below beta0
        assert run_cli("levels", "--beta0", "3.0000001") == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 2
        assert 3.0 < float(rows[1][1]) <= 3.0000001

    def test_empty_table_is_valid(self, capsys):
        assert run_cli("levels", "--beta0", "0.7") == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert rows == []

    def test_marginal_row_flagged(self, capsys):
        assert run_cli("levels", "--beta0", "1.0") == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 1
        assert rows[0][-1] == "true"

    def test_json_document_shape(self, capsys):
        assert run_cli("levels", "--beta0", "2.0", "--format", "json") == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"manifest", "data"}
        assert document["manifest"]["command"] == "levels"
        assert document["manifest"]["tool_version"]
        assert document["manifest"]["timestamp"]
        assert len(document["data"]) == 1
        assert document["data"][0]["n"] == 0

    def test_physical_units_mode(self, capsys):
        assert run_cli("levels", "--u0", "4.0") == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert len(rows) == 2  # beta0 = 4.5 with unit constants

    def test_mixing_unit_modes_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("levels", "--beta0", "2.0", "--u0", "3.0")
        assert exc.value.code == 2

    def test_missing_height_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("levels")
        assert exc.value.code == 2

    @pytest.mark.parametrize("beta0", ["nan", "inf"])
    def test_non_finite_height_exits_2(self, beta0, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("levels", "--beta0", beta0)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err

    def test_overflowing_step_height_exits_2(self, capsys):
        # finite constants whose beta0 = u0 / (hbar omega) + 1/2 overflows
        code = run_cli("levels", "--hbar", "1e-300", "--mass", "1", "--kappa", "1",
                       "--u0", "1e10")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("argument error: ")
        assert captured.err.count("\n") == 1

    def test_deterministic_data_section(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            assert run_cli("levels", "--beta0", "3.7", "-o", str(path)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert manifest["manifest"]["parameters"]["beta0"] == 3.7

    def test_unix_line_endings_and_digits(self, tmp_path):
        path = tmp_path / "levels.csv"
        run_cli("levels", "--beta0", "4.5", "-o", str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        value = raw.decode().splitlines()[1].split(",")[1]
        assert len(value.replace(".", "").replace("-", "")) >= 11

    def test_json_data_deterministic_across_runs(self, tmp_path):
        documents = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert run_cli("levels", "--beta0", "4.5", "--format", "json",
                           "-o", str(path)) == 0
            documents.append(json.loads(path.read_text()))
        assert documents[0]["data"] == documents[1]["data"]


class TestDelay:
    def test_curve_tail_reaches_half_period(self, capsys):
        assert run_cli("delay", "--beta0", "1.5", "--beta-min", "390",
                       "--beta-max", "400", "--steps", "3") == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=0.02)

    def test_integer_step_starts_near_zero(self, capsys):
        assert run_cli("delay", "--beta0", "4", "--beta-min", "4.000001",
                       "--beta-max", "5", "--steps", "4") == 0
        _, rows = read_csv(capsys.readouterr().out)
        assert abs(float(rows[0][1])) < 0.1

    def test_bad_window_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("delay", "--beta0", "1.5", "--beta-min", "1.4",
                    "--beta-max", "5", "--steps", "10")
        assert exc.value.code == 2

    def test_infinite_window_exits_2(self, capsys):
        # linspace to inf would write NaN rows
        with pytest.raises(SystemExit) as exc:
            run_cli("delay", "--beta0", "1.5", "--beta-min", "1.6",
                    "--beta-max", "inf", "--steps", "3")
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_unallocatable_curve_exits_4(self, capsys):
        # 1e17 float64 points are 711 PiB, past the largest user address
        # space of 64-bit machines (2^57 bytes, 128 PiB), so numpy refuses
        # up front and nothing is allocated
        code = run_cli("delay", "--beta0", "1.5", "--beta-min", "1.6",
                       "--beta-max", "2", "--steps", str(10 ** 17))
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("out of memory: ")
        assert captured.err.count("\n") == 1

    def test_curve_shows_resonance_peaks(self, capsys):
        assert run_cli("delay", "--beta0", "1.5", "--beta-min", "1.6",
                       "--beta-max", "8.0", "--steps", "321") == 0
        _, rows = read_csv(capsys.readouterr().out)
        betas = np.array([float(r[0]) for r in rows])
        taus = np.array([float(r[1]) for r in rows])
        interior = np.flatnonzero((taus[1:-1] > taus[:-2])
                                  & (taus[1:-1] >= taus[2:])) + 1
        peaks = betas[interior][taus[interior] > 1.05]
        assert all(any(abs(p - target) < 0.2 for p in peaks)
                   for target in (3.0, 5.0, 7.0))


class TestEigenfunction:
    def test_missing_level_exits_3(self, capsys):
        assert run_cli("eigenfunction", "--beta0", "1.5", "--n", "3") == 3

    def test_negative_point_count_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("eigenfunction", "--beta0", "4.5", "--n", "0", "--points", "-3")
        assert exc.value.code == 2

    def test_inaccurate_excited_state_exits_4(self, capsys):
        # beta_n ~ 37.4: the contour solution misses J(beta_n) at the junction
        assert run_cli("eigenfunction", "--beta0", "60", "--n", "18") == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beta=37.42" in captured.err

    def test_continuity_across_origin(self, capsys):
        assert run_cli("eigenfunction", "--beta0", "4.5", "--n", "1",
                       "--x-min", "-2", "--x-max", "2", "--points", "201") == 0
        _, rows = read_csv(capsys.readouterr().out)
        xs = np.array([float(r[0]) for r in rows])
        u = np.array([complex(float(r[1]), float(r[2])) for r in rows])
        i = np.searchsorted(xs, 0.0)
        assert abs(u[i] - u[i - 1]) < 5e-2 * abs(u[i])  # adjacent fine-grid rows

    def test_node_count_matches_index(self, capsys):
        assert run_cli("eigenfunction", "--beta0", "4.5", "--n", "1",
                       "--x-min", "-7", "--x-max", "0", "--points", "1500") == 0
        _, rows = read_csv(capsys.readouterr().out)
        re_u = np.array([float(r[1]) for r in rows])
        scale = np.max(np.abs(re_u))
        signs = np.sign(re_u[np.abs(re_u) > 1e-6 * scale])
        assert int(np.count_nonzero(np.diff(signs))) == 1

    def test_marginal_ground_state_gaussian(self, capsys):
        assert run_cli("eigenfunction", "--beta0", "1.0", "--n", "0",
                       "--x-min", "-3", "--x-max", "1", "--points", "401",
                       "--format", "json") == 0
        document = json.loads(capsys.readouterr().out)
        assert document["level"]["marginal"] is True
        data = document["data"]
        at = {round(row["x"], 6): row for row in data}
        ratio = at[-2.0]["abs2_u"] / at[-1.0]["abs2_u"]
        assert ratio == pytest.approx(np.exp(-4.0) / np.exp(-1.0), rel=1e-6)


class TestWavepacket:
    def test_summary_against_analytic_delay(self, capsys):
        assert run_cli("wavepacket", "--beta0", "1.5", "--k-center", "3.0",
                       "--t-max", "2.0", "--frames", "2", "--x-points", "60",
                       "--format", "json") == 0
        document = json.loads(capsys.readouterr().out)
        summary = document["summary"]
        assert abs(summary["relative_difference"]) < 0.05
        assert len(document["data"]) == 2 * 60

    def test_mirror_mode_delay_free(self, capsys):
        assert run_cli("wavepacket", "--beta0", "1.5", "--k-center", "3.0",
                       "--mirror", "--t-max", "1.0", "--frames", "2",
                       "--x-points", "40", "--format", "json") == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        assert abs(summary["measured_delay"]) / np.pi < 0.02

    def test_needs_a_center(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("wavepacket", "--beta0", "1.5")
        assert exc.value.code == 2

    def test_both_centers_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("wavepacket", "--beta0", "1.5", "--beta-center", "6",
                    "--k-center", "2.0")
        assert exc.value.code == 2

    def test_beta_center_is_the_library_packet(self, capsys):
        assert run_cli("wavepacket", "--beta0", "1.5", "--beta-center", "6",
                       "--t-max", "1.0", "--frames", "2", "--x-points", "20",
                       "--format", "json") == 0
        summary = json.loads(capsys.readouterr().out)["summary"]
        config = PotentialConfig.from_beta0(1.5)
        expected = measure_delay(WavePacketSpec.for_beta(config, 6.0))
        assert summary["measured_delay"] == expected

    def test_rows_are_the_frames_time_major(self, capsys):
        # one row per (t, x), times outer; numpy's array abs may differ from
        # the scalar abs() by 2 ulps, so |psi|^2 by 4
        args = ("wavepacket", "--beta0", "1.5", "--beta-center", "6", "--t-max", "3.0",
                "--frames", "3", "--x-points", "25")
        assert run_cli(*args, "--format", "json") == 0
        data = json.loads(capsys.readouterr().out)["data"]
        spec = WavePacketSpec.for_beta(PotentialConfig.from_beta0(1.5), 6.0)
        frames = evolve(spec, np.linspace(0.0, spec.x_start + 12.0 * spec.sigma_x, 25),
                        np.linspace(0.0, 3.0, 3))
        expected = [(t, x, psi.real, psi.imag, abs(psi) ** 2)
                    for t, frame in zip(frames.times, frames.psi)
                    for x, psi in zip(frames.x_grid, frame)]
        assert len(data) == len(expected) == 75
        for row, (t, x, re, im, abs2) in zip(data, expected):
            assert list(row) == ["t", "x", "re_psi", "im_psi", "abs2_psi"]
            assert (row["t"], row["x"], row["re_psi"], row["im_psi"]) == (t, x, re, im)
            assert row["abs2_psi"] == pytest.approx(abs2, rel=1e-15, abs=0.0)
        assert run_cli(*args) == 0
        header, rows = read_csv(capsys.readouterr().out)
        assert header == ["t", "x", "re_psi", "im_psi", "abs2_psi"]
        assert [row[:2] for row in rows] == [[cli._fmt(t), cli._fmt(x)]
                                             for t, x, *_ in expected]

    def test_beta_center_takes_width_and_start(self, capsys):
        # sigma_x = 1 / (2 sigma_k) = 10, so the grid ends at 80 + 12 * 10
        assert run_cli("wavepacket", "--beta0", "1.5", "--beta-center", "6",
                       "--sigma-k", "0.05", "--x-start", "80", "--t-max", "1.0",
                       "--frames", "2", "--x-points", "5", "--format", "json") == 0
        document = json.loads(capsys.readouterr().out)
        assert document["data"][-1]["x"] == pytest.approx(200.0, rel=1e-12)
        assert document["summary"]["beta_center"] == pytest.approx(6.0, rel=1e-12)
        parameters = document["manifest"]["parameters"]
        assert (parameters["sigma_k"], parameters["x_start"]) == (0.05, 80.0)

    @pytest.mark.parametrize("option", ["--frames", "--x-points"])
    def test_zero_sample_count_exits_2(self, option):
        with pytest.raises(SystemExit) as exc:
            run_cli("wavepacket", "--beta0", "1.5", "--k-center", "3.0", option, "0")
        assert exc.value.code == 2

    def test_unlaunchable_packet_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("wavepacket", "--beta0", "1.5", "--k-center", "3.0",
                    "--x-start", "2.0")
        assert exc.value.code == 2

    def test_dispersed_packet_exits_4(self, capsys):
        # broad momentum spread at the closest admissible launch point:
        # the reflected packet is too smeared to localize
        code = run_cli("wavepacket", "--beta0", "1.5", "--k-center", "3.0",
                       "--sigma-k", "0.7", "--x-start", "3.44")
        assert code == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_singular_interior_amplitude_exits_4(self, capsys, monkeypatch):
        def vanished(beta, config):
            raise SingularityError("Pi denominator vanished at beta=6.0")

        monkeypatch.setattr(scattering, "pi_coefficient", vanished)
        code = run_cli("wavepacket", "--beta0", "1.5", "--beta-center", "6",
                       "--include-interior", "--frames", "2", "--x-points", "20")
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err == "numerical failure: Pi denominator vanished at beta=6.0\n"

    def test_interior_rows_join_the_step_side(self, capsys):
        # the x < 0 rows written are the library frames, and those are
        # continuous at x = 0
        assert run_cli("wavepacket", "--beta0", "1.5", "--beta-center", "6",
                       "--include-interior", "--frames", "2", "--x-points", "60") == 0
        _, rows = read_csv(capsys.readouterr().out)
        table = np.array(rows, dtype=float)
        times, xs = np.unique(table[:, 0]), np.unique(table[:, 1])
        assert xs.size == 60 and np.count_nonzero(xs < 0.0) > 1
        spec = WavePacketSpec.for_beta(PotentialConfig.from_beta0(1.5), 6.0)
        psi = evolve(spec, xs, times).psi.ravel()
        assert np.all(table[:, 4] > 0.0)
        # x and psi are printed to 12 digits, and psi moves by about |psi| k dx
        assert np.abs(table[:, 2] + 1j * table[:, 3] - psi).max() <= 1e-9 * np.abs(psi).max()
        edge = evolve(spec, [-1e-9, 0.0], times).psi
        density = np.abs(edge) ** 2
        assert np.all(np.abs(density[:, 0] - density[:, 1]) <= 1e-6 * density[:, 1])

    def test_inaccurate_interior_packet_exits_4(self, capsys):
        # the k-support spans beta 28.2 to 53.9, where the contour solution
        # misses J(beta): the junction check of the first k node's row stops it
        start = time.perf_counter()
        code = run_cli("wavepacket", "--beta0", "1.5", "--beta-center", "40",
                       "--include-interior")
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert "beta=28.2466101151" in captured.err
        assert elapsed < 5.0


class TestResonances:
    def test_table_positions(self, capsys):
        assert run_cli("resonances", "--beta0", "3.5", "--beta-max", "8.0") == 0
        _, rows = read_csv(capsys.readouterr().out)
        peaks = [float(r[0]) for r in rows]
        assert all(abs(p - 3.0) > 0.2 for p in peaks)
        assert any(abs(p - 5.0) < 0.2 for p in peaks)

    def test_unbracketed_crossing_exits_4(self, capsys, monkeypatch):
        def unbracketed(f, inside, outside, tol):
            raise BracketError(f"no sign change on bracket ({inside[0]}, {outside[0]})")

        monkeypatch.setattr(scattering, "_multisect", unbracketed)
        code = run_cli("resonances", "--beta0", "1.5", "--beta-max", "12")
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("numerical failure: no sign change on bracket (")

    def test_unallocatable_scan_exits_4(self, capsys):
        # the 0.01 scan grid up to 1e15 has 1e17 points (711 PiB)
        code = run_cli("resonances", "--beta0", "1.5", "--beta-max", "1e15")
        captured = capsys.readouterr()
        assert code == 4
        assert captured.out == ""
        assert captured.err.startswith("out of memory: ")
        assert captured.err.count("\n") == 1

    def test_nan_beta_max_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("resonances", "--beta0", "1.5", "--beta-max", "nan")
        assert exc.value.code == 2


class TestVerify:
    def test_fresh_checkout_passes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("verify") == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        report = json.loads((tmp_path / "verify_report.json").read_text())
        assert all(item["passed"] for item in report["data"])
        assert {"name", "residual", "threshold", "passed"} <= set(report["data"][0])
        assert all(item["seconds"] >= 0.0 for item in report["data"])

    def test_every_check_is_timed_a_crashed_one_included(self, monkeypatch):
        def check_crashes():
            time.sleep(0.02)
            raise RuntimeError("no result")

        monkeypatch.setattr(verification, "_ALL_CHECKS",
                            [verification.check_gamma_reflection, check_crashes,
                             verification.check_digamma_recurrence])
        start = time.perf_counter()
        results = verification.run_all()
        wall = time.perf_counter() - start
        assert [r.name for r in results] == ["gamma_reflection_identity", "crashes",
                                             "digamma_recurrence"]
        assert all(r.seconds >= 0.0 for r in results)
        assert sum(r.seconds for r in results) <= wall
        assert not results[1].passed and results[1].seconds >= 0.02

    def test_corrupted_gamma_constant_fails(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        corrupted = list(_LANCZOS_COEFFS)
        corrupted[3] *= 1.000001
        monkeypatch.setattr("stepharm.special._LANCZOS_COEFFS", corrupted)
        assert run_cli("verify") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_corrupted_gamma_constant_fails_the_digamma_check(self, capsys, tmp_path,
                                                               monkeypatch):
        # digamma is the derivative of the same Lanczos series, so the
        # corruption also breaks psi(x+1) - psi(x) = 1/x
        monkeypatch.chdir(tmp_path)
        corrupted = list(_LANCZOS_COEFFS)
        corrupted[3] *= 1.000001
        monkeypatch.setattr("stepharm.special._LANCZOS_COEFFS", corrupted)
        assert run_cli("verify") == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        (check,) = [item for item in report["data"] if item["name"] == "digamma_recurrence"]
        assert not check["passed"]
        assert "FAIL  digamma_recurrence:" in capsys.readouterr().out

    def test_corrupted_ratio_series_fails_the_ratio_route_check(self, capsys, tmp_path,
                                                                 monkeypatch):
        # the Gamma-ratio kernel shares no constant with the Lanczos pass, so
        # a wrong series coefficient shows against the Lanczos route
        monkeypatch.chdir(tmp_path)
        corrupted = list(_RATIO_SERIES)
        corrupted[0] *= 1.000001
        monkeypatch.setattr("stepharm.special._RATIO_SERIES", corrupted)
        assert run_cli("verify") == 1
        report = json.loads((tmp_path / "verify_report.json").read_text())
        (check,) = [item for item in report["data"] if item["name"] == "gamma_ratio_routes"]
        assert not check["passed"]
        assert "FAIL  gamma_ratio_routes:" in capsys.readouterr().out


# Run in a fresh interpreter, since this one has every layer loaded: calls
# ``cli.main`` on the arguments, if any, and prints the exit status and the
# numpy and stepharm modules loaded by then.
_LOAD_PROBE = """
import contextlib, io, json, sys
from stepharm import cli
status = 0
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            status = cli.main(sys.argv[1:])
        except SystemExit as exc:
            status = exc.code
print(json.dumps([status, sorted(m for m in sys.modules
                                 if m.split(".")[0] in ("numpy", "stepharm"))]))
"""


def fresh_interpreter(code, *argv, threads=None):
    """Last stdout line of ``code`` run with ``argv`` in a new Python process.

    The process sees this one's environment with none of the BLAS thread
    variables but those given in ``threads``.
    """
    src = str(Path(stepharm.__file__).resolve().parents[1])
    env = {name: value for name, value in os.environ.items()
           if name not in cli._BLAS_THREAD_VARIABLES}
    env.update(threads or {}, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, check=True,
                          capture_output=True, text=True)
    return done.stdout.splitlines()[-1]


def loaded_by(*argv):
    """Exit status, whether numpy was loaded, and the stepharm modules loaded."""
    status, modules = json.loads(fresh_interpreter(_LOAD_PROBE, *argv))
    layers = {m.split(".", 1)[1] for m in modules if m.startswith("stepharm.")}
    return status, "numpy" in modules, layers


_NO_SCATTERING = {"scattering", "runtime", "wavepacket", "verification", "oracle"}
_NO_SPECTRUM = {"spectrum", "wavepacket", "verification", "oracle"}
# each subcommand with the stepharm modules it must not load
_SUBCOMMAND_RUNS = [
    (["levels", "--beta0", "4.5"], _NO_SCATTERING),
    (["eigenfunction", "--beta0", "4.5", "--n", "1", "--points", "9"], _NO_SCATTERING),
    (["delay", "--beta0", "2.5", "--beta-min", "3", "--beta-max", "6", "--steps", "9"],
     _NO_SPECTRUM),
    (["resonances", "--beta0", "2.5", "--beta-max", "6"], _NO_SPECTRUM),
    (["wavepacket", "--beta0", "2.5", "--beta-center", "6", "--frames", "2",
      "--x-points", "9"], {"spectrum", "verification", "oracle"}),
]


class TestLoading:
    def test_import_loads_no_numerical_module(self):
        assert loaded_by() == (0, False, {"cli", "errors"})

    @pytest.mark.parametrize("argv, status", [
        (["--help"], 0),
        (["levels", "--beta0", "0.1"], 2),
        (["levels", "--beta0", "2", "--u0", "1"], 2),
    ], ids=["help", "beta0-below-half", "mixed-unit-modes"])
    def test_help_and_argument_errors_load_no_numpy(self, argv, status):
        assert loaded_by(*argv) == (status, False, {"cli", "errors"})

    @pytest.mark.parametrize("argv, unused", [pytest.param(argv, unused, id=argv[0])
                                              for argv, unused in _SUBCOMMAND_RUNS])
    def test_each_subcommand_loads_only_its_layers(self, argv, unused):
        status, numpy_loaded, layers = loaded_by(*argv)
        assert status == 0 and numpy_loaded
        assert not layers & unused

    def test_numbers_format_as_with_numpy_types(self):
        values = [True, np.bool_(False), 7, np.int64(-3), np.uint8(200), 0.1,
                  np.float64(1 / 3), np.float32(0.1), 1e-300]
        assert [cli._fmt(v) for v in values] == [
            "true", "0", "7", "-3", "200", "0.1", "0.333333333333", "0.10000000149",
            "1e-300"]


# Run in a fresh interpreter: calls ``cli.main`` on the arguments, if any,
# and prints the BLAS thread variables then set, or, with no arguments,
# whether importing ``stepharm.cli`` changed the environment.
_THREAD_PROBE = """
import contextlib, io, json, os, sys
before = dict(os.environ)
from stepharm import cli
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(sys.argv[1:])
    print(json.dumps({name: os.environ.get(name) for name in cli._BLAS_THREAD_VARIABLES}))
else:
    print(json.dumps(dict(os.environ) == before))
"""

# Run in a fresh interpreter: the JSON document ``cli.main`` writes, on one line.
_JSON_OUTPUT = """
import contextlib, io, json, sys
from stepharm import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    cli.main(sys.argv[1:])
print(json.dumps(json.loads(out.getvalue())))
"""


class TestBlasThreads:
    def test_main_runs_openblas_on_one_thread(self):
        seen = json.loads(fresh_interpreter(_THREAD_PROBE, "levels", "--beta0", "4.5"))
        assert seen == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None,
                        "OMP_NUM_THREADS": None}

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                                      "OMP_NUM_THREADS"])
    def test_a_callers_thread_count_is_kept(self, name):
        seen = json.loads(fresh_interpreter(_THREAD_PROBE, "levels", "--beta0", "4.5",
                                            threads={name: "2"}))
        assert seen == {n: "2" if n == name else None for n in cli._BLAS_THREAD_VARIABLES}

    def test_main_after_numpy_sets_nothing(self, capsys):
        with mock.patch.dict(os.environ):
            for name in cli._BLAS_THREAD_VARIABLES:
                os.environ.pop(name, None)
            before = dict(os.environ)
            assert run_cli("levels", "--beta0", "4.5") == 0
            assert dict(os.environ) == before

    def test_import_sets_nothing(self):
        assert json.loads(fresh_interpreter(_THREAD_PROBE)) is True

    def test_two_threads_move_packet_rows_only_at_rounding(self):
        argv = ("wavepacket", "--beta0", "2.5", "--beta-center", "8.5",
                "--include-interior", "--format", "json")
        one, two = (json.loads(fresh_interpreter(_JSON_OUTPUT, *argv, threads=threads))
                    for threads in ({}, {"OPENBLAS_NUM_THREADS": "2"}))
        rows = [np.array([list(row.values()) for row in document["data"]])
                for document in (one, two)]
        assert rows[0].shape == rows[1].shape == (9 * 400, 5)
        np.testing.assert_array_equal(rows[0][:, :2], rows[1][:, :2])
        scale = np.sqrt(rows[0][:, 4].max())
        np.testing.assert_allclose(rows[0][:, 2:4], rows[1][:, 2:4], rtol=0,
                                   atol=1e-15 * scale)
        np.testing.assert_allclose(rows[0][:, 4], rows[1][:, 4], rtol=0,
                                   atol=2e-15 * scale ** 2)
        delays = [document["summary"]["measured_delay"] for document in (one, two)]
        assert delays[1] == pytest.approx(delays[0], rel=1e-14, abs=0.0)


class TestPackage:
    def test_every_export_is_its_defining_modules_object(self):
        assert stepharm.__all__[0] == "__version__"
        for name in stepharm.__all__[1:]:
            value = getattr(stepharm, name)
            assert value.__module__.startswith("stepharm.")
            assert getattr(sys.modules[value.__module__], name) is value

    def test_star_import_binds_every_export(self):
        namespace = {}
        exec("from stepharm import *", namespace)
        for name in stepharm.__all__:
            assert namespace[name] is getattr(stepharm, name)

    def test_dir_lists_the_exports(self):
        assert set(stepharm.__all__) <= set(dir(stepharm))

    def test_bare_import_loads_a_submodule_on_access(self):
        code = ("import sys, stepharm; before = sorted(sys.modules); "
                "print(stepharm.contour.__name__, 'numpy' in before, "
                "[m for m in before if m.startswith('stepharm.')])")
        assert fresh_interpreter(code) == "stepharm.contour False []"

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            stepharm.no_such_name
        assert not hasattr(stepharm, "oracle_of_delphi")

    def test_access_binds_nothing_and_follows_a_rebinding(self, monkeypatch):
        assert stepharm.f_epsilon is contour.f_epsilon
        assert not set(stepharm.__all__[1:]) & set(vars(stepharm))
        monkeypatch.setattr(contour, "f_epsilon", len)
        assert stepharm.f_epsilon is len
