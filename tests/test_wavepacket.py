"""Improper eigenfunctions, packet evolution and the measured delay."""

import numpy as np
import pytest

from stepharm import (ConvergenceError, DispersionError, DomainError,
                      WavePacketSpec, delay_time, evolve, f_epsilon,
                      f_epsilon_derivative, improper_eigenfunction,
                      measure_delay, pi_coefficient, wavepacket, zeta)


class TestSpecValidation:
    def test_for_beta_defaults(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        assert spec.k_center == pytest.approx(3.0)
        assert spec.sigma_k == pytest.approx(0.1)
        assert spec.x_start == pytest.approx(30.0)

    def test_below_threshold_rejected(self, cfg15):
        with pytest.raises(DomainError):
            WavePacketSpec(k_center=0.3, sigma_k=0.1, x_start=30.0, config=cfg15)

    def test_overlapping_launch_rejected(self, cfg15):
        with pytest.raises(DomainError):
            WavePacketSpec(k_center=3.0, sigma_k=0.1, x_start=10.0, config=cfg15)


class TestImproperEigenfunction:
    @pytest.mark.parametrize("beta", [1.7, 2.9, 4.2, 7.5])
    def test_continuity_at_origin(self, cfg15, beta):
        left = improper_eigenfunction(beta, cfg15, -1e-14)
        right = improper_eigenfunction(beta, cfg15, 0.0)
        assert abs(left - right) < 1e-8 * abs(right)

    @pytest.mark.parametrize("beta", [1.7, 2.9, 4.2, 7.5])
    def test_junction_identities(self, cfg15, beta):
        pi_c = pi_coefficient(beta, cfg15)
        z = zeta(beta, cfg15)
        k = cfg15.k_continuum(beta)
        assert abs(pi_c * f_epsilon(beta, 0.0) - (1.0 + z)) < 1e-8
        slope_left = pi_c * cfg15.alpha * f_epsilon_derivative(beta, 0.0)
        slope_right = 1j * k * (z - 1.0)
        assert abs(slope_left - slope_right) < 1e-8 * abs(slope_right)

    def test_standing_wave_envelope(self, cfg15):
        xs = np.linspace(0.0, 40.0, 4000)
        density = np.abs(improper_eigenfunction(2.4, cfg15, xs)) ** 2
        ceiling = 4.0 / (2.0 * np.pi)
        assert density.max() <= ceiling * (1.0 + 1e-9)
        assert density.max() > 0.97 * ceiling
        assert density.min() < 0.03 * ceiling

    def test_is_the_mode_row_at_k_of_beta(self, cfg15):
        xs = np.linspace(-4.0, 6.0, 41)
        ks = np.array([cfg15.k_continuum(2.4)])
        row = wavepacket._mode_matrix(cfg15, ks, xs, mirror=False)[0]
        assert np.array_equal(improper_eigenfunction(2.4, cfg15, xs), row)

    @pytest.mark.parametrize("beta", [28.2, 40.3])
    def test_inaccurate_interior_raises(self, cfg15, beta):
        # the contour solution misses J(beta) there: unchecked, the interior
        # values jump across x = 0 by 1.3e-5 relative at 28.2, by 282 at 40.3
        with pytest.raises(ConvergenceError,
                           match=rf"beta={beta} misses J\(beta\) at the junction by "):
            improper_eigenfunction(beta, cfg15, np.array([-1e-14, 0.0]))

    @pytest.mark.parametrize("beta", [28.2, 40.3])
    def test_step_side_needs_no_interior_check(self, cfg15, beta):
        density = np.abs(improper_eigenfunction(beta, cfg15, np.linspace(0.0, 5.0, 51))) ** 2
        assert density.max() <= 4.0 / (2.0 * np.pi) * (1.0 + 1e-9)


class TestEvolve:
    def test_initial_centroid_and_approach_speed(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        xs = np.linspace(0.0, 80.0, 900)
        frames = evolve(spec, xs, [0.0, 1.0, 2.0])
        centroids = frames.centroids()
        assert centroids[0] == pytest.approx(spec.x_start, abs=0.05)
        velocity = (centroids[2] - centroids[0]) / 2.0
        assert velocity == pytest.approx(-spec.group_speed, rel=0.02)

    def test_outgoing_speed_after_reflection(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        t0 = 2.0 * spec.x_start / spec.group_speed + 6.0
        xs = np.linspace(0.0, 110.0, 1100)
        frames = evolve(spec, xs, [t0, t0 + 1.0, t0 + 2.0])
        centroids = frames.centroids()
        velocity = (centroids[2] - centroids[0]) / 2.0
        assert velocity == pytest.approx(spec.group_speed, rel=0.02)

    def test_norm_conserved_through_interaction(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        bounce = spec.x_start / spec.group_speed
        xs = np.linspace(-6.0, 80.0, 1100)
        frames = evolve(spec, xs, [0.0, 0.7 * bounce, bounce, 1.3 * bounce,
                                   2.0 * bounce + 4.0])
        norms = frames.norms()
        assert np.max(np.abs(norms - norms[0])) < 0.01 * norms[0]

    def test_mirror_frames_skip_interior(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        xs = np.linspace(-4.0, 60.0, 400)
        frames = evolve(spec, xs, [spec.x_start / spec.group_speed], mirror=True)
        assert np.all(frames.psi[:, frames.x_grid < 0] == 0.0)

    def test_grid_must_increase(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        with pytest.raises(DomainError):
            evolve(spec, np.array([1.0, 0.5, 2.0]), [0.0])


class TestMeasureDelay:
    def test_matches_analytic_delay(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        measured = measure_delay(spec)
        analytic = delay_time(6.0, cfg15)
        assert abs(measured - analytic) / analytic < 0.05

    def test_mirror_is_delay_free(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        measured = measure_delay(spec, mirror=True)
        assert abs(measured) * cfg15.omega / np.pi < 0.02

    def test_resonant_packet_lingers(self, cfg15):
        on_peak = measure_delay(WavePacketSpec.for_beta(cfg15, 3.0))
        off_peak = measure_delay(WavePacketSpec.for_beta(cfg15, 4.0))
        assert on_peak > off_peak

    def test_high_energy_approaches_half_period(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 20.0)
        measured = measure_delay(spec)
        assert abs(measured * cfg15.omega / np.pi - 1.0) < 0.02

    def test_dispersed_packet_rejected(self, cfg15):
        # broad momentum spread at the smallest admissible launch distance:
        # the packet more than doubles its width before returning
        sigma_k = 0.7
        spec = WavePacketSpec(k_center=3.0, sigma_k=sigma_k,
                              x_start=4.81 / (2.0 * sigma_k), config=cfg15)
        with pytest.raises(DispersionError):
            measure_delay(spec)
