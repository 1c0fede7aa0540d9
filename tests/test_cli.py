"""Command-line surface: tables, formats, exit codes, determinism."""

import json
import time

import numpy as np
import pytest

from stepharm import (BracketError, PotentialConfig, SingularityError, WavePacketSpec, cli,
                      evolve, measure_delay, scattering)
from stepharm.special import _LANCZOS_COEFFS


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
