"""Improper eigenfunctions, packet evolution and the measured delay."""

import math
from collections import OrderedDict

import numpy as np
import pytest

from stepharm import (ConvergenceError, DispersionError, DomainError,
                      PotentialConfig, WavePacketSpec, contour, delay_time, evolve, f_epsilon,
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
        # unit amplitudes on one node at a time: each row of the packet's
        # mode sum over a rule of 20 nodes is the eigenfunction at its k
        xs = np.linspace(-4.0, 6.0, 41)
        rule = contour._panel_rule(cfg15.k_continuum(2.3), cfg15.k_continuum(2.5), 20)
        rows = wavepacket._mode_sum(cfg15, rule, np.eye(rule.nodes.size), xs)
        for k, row in zip(rule.nodes, rows):
            expected = improper_eigenfunction(cfg15.beta_from_k(k), cfg15, xs)
            assert np.abs(row - expected).max() <= 1e-14 * np.abs(expected).max()

    @pytest.mark.parametrize("beta", [28.2, 40.3])
    def test_inaccurate_interior_raises(self, cfg15, beta):
        # the contour solution misses J(beta) there: unchecked, the interior
        # values jump across x = 0 by 1.3e-5 relative at 28.2, by 282 at 40.3
        with pytest.raises(ConvergenceError,
                           match=rf"beta={beta} misses J\(beta\) at the junction by "):
            improper_eigenfunction(beta, cfg15, np.array([-1e-14, 0.0]))

    @pytest.mark.parametrize("beta", [2.0, 4.0])
    def test_even_beta_interior_passes_the_junction_check(self, cfg15, beta):
        # J(beta) = 0 at even beta; the check's scale 2 pi / Gamma((beta+1)/2)
        # does not vanish there, so the interior row is returned
        xs = np.linspace(-4.0, 0.0, 41)
        values = improper_eigenfunction(beta, cfg15, xs)
        assert np.all(np.isfinite(values))
        assert np.max(np.abs(values[:-1])) > 0.0
        left = improper_eigenfunction(beta, cfg15, -1e-14)
        assert abs(left - values[-1]) < 1e-8 * np.max(np.abs(values))

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

    def test_every_interior_row_is_checked(self, cfg15, monkeypatch):
        # F(0) is spoiled only strictly inside the upper half of the
        # k-support, away from its centre and ends, and only in the call that
        # also samples y < 0: the check of the rows' own F(0) must raise there
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        centre = spec.beta_center
        upper = cfg15.beta_from_k(spec.k_center + 5.0 * spec.sigma_k)
        exact = contour.f_epsilon

        def spoiled(beta, y):
            value = exact(beta, y)
            if np.size(y) > 1:
                inside = (centre < np.asarray(beta)) & (np.asarray(beta) < upper)
                value = value + 1e-4 * np.multiply.outer(inside, np.asarray(y) == 0.0)
            return value

        monkeypatch.setattr(contour, "f_epsilon", spoiled)
        with pytest.raises(ConvergenceError,
                           match=r"misses J\(beta\) at the junction") as info:
            evolve(spec, np.linspace(-2.0, 40.0, 60), [0.0])
        named = float(info.value.args[0].split("beta=")[1].split()[0])
        assert centre < named < upper

    def test_one_contour_call_per_round(self, cfg15, monkeypatch):
        # each k-refinement round forms all its interior rows, with their
        # junction values, as one block
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        calls, rounds = [], []
        exact, k_rule = contour.f_epsilon, wavepacket._k_rule

        def counted(beta, y):
            calls.append((np.size(beta), np.size(y)))
            return exact(beta, y)

        def recorded(spec, n):
            rounds.append(k_rule(spec, n))
            return rounds[-1]

        monkeypatch.setattr(contour, "f_epsilon", counted)
        monkeypatch.setattr(wavepacket, "_k_rule", recorded)
        xs = np.linspace(-4.0, spec.x_start + 12.0 * spec.sigma_x, 400)
        evolve(spec, xs, np.linspace(0.0, 40.0, 9))
        interior = int(np.count_nonzero(xs < 0.0))
        assert len(rounds) >= 2
        assert calls == [(rule.nodes.size, interior + 1) for rule in rounds]

    def test_one_hermite_table_across_rounds(self, cfg15, monkeypatch):
        # every k round forms its rows on the same y, so the circle's
        # Hermite recurrence runs once for the whole refinement
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        built, rounds = [], []
        exact, k_rule = contour._hermite_rows, wavepacket._k_rule

        def counted(y, radius, limit):
            built.append(y.size)
            return exact(y, radius, limit)

        def recorded(spec, n):
            rounds.append(k_rule(spec, n))
            return rounds[-1]

        monkeypatch.setattr(contour, "_tables", OrderedDict())
        monkeypatch.setattr(contour, "_hermite_rows", counted)
        monkeypatch.setattr(wavepacket, "_k_rule", recorded)
        xs = np.linspace(-4.0, spec.x_start + 12.0 * spec.sigma_x, 400)
        evolve(spec, xs, np.linspace(0.0, 40.0, 9))
        assert len(rounds) >= 2
        assert built == [np.count_nonzero(xs < 0.0) + 1]

    @pytest.mark.parametrize("x_grid,times,shape", [
        ([], [0.0, 1.0], (2, 0)),
        (np.linspace(0.0, 40.0, 7), [], (0, 7)),
        ([], [], (0, 0)),
    ])
    def test_empty_grids_give_empty_frames(self, cfg15, x_grid, times, shape):
        frames = evolve(WavePacketSpec.for_beta(cfg15, 6.0), x_grid, times)
        assert frames.psi.shape == shape
        assert frames.x_grid.shape == (shape[1],)
        assert frames.times.shape == (shape[0],)

    def test_scalar_position_is_one_point(self, cfg15):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        frames = evolve(spec, 5.0, [0.0, 10.0])
        assert frames.psi.shape == (2, 1)
        assert np.array_equal(frames.psi, evolve(spec, [5.0], [0.0, 10.0]).psi)

    def test_stall_names_last_change_and_budget(self, cfg15, monkeypatch):
        # frames that move with every doubling never settle
        monkeypatch.setattr(wavepacket, "_mode_sum",
                            lambda config, rule, amplitudes, x, *flags, **named:
                            np.full((amplitudes.shape[0], x.size), rule.nodes.size,
                                    dtype=complex))
        with pytest.raises(ConvergenceError,
                           match=r"packet frames stalled: last change \S+ against "
                                 r"target_tol\*scale=\S+ \(about 4096 k nodes\)"):
            evolve(WavePacketSpec.for_beta(cfg15, 6.0), np.linspace(0.0, 40.0, 7), [0.0])

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

    @pytest.mark.parametrize("beta0", [1.5, 4.5])
    @pytest.mark.parametrize("beta", [30.0, 40.0, 100.0])
    def test_high_energy_delay_is_the_averaged_tau(self, beta0, beta):
        # the reflected wave is a faint prompt echo off the step plus the
        # delayed packet; the crossing counts only once the packet has formed
        config = PotentialConfig.from_beta0(beta0)
        spec = WavePacketSpec.for_beta(config, beta)
        x, w = np.polynomial.legendre.leggauss(200)
        ks = spec.k_center + 5.0 * spec.sigma_k * x
        density = w * np.abs(spec.envelope(ks)) ** 2
        averaged = np.sum(density * delay_time(config.beta_from_k(ks), config)) / np.sum(density)
        assert abs(measure_delay(spec) - averaged) < 0.005 * averaged

    @pytest.mark.parametrize("mirror", [False, True])
    def test_reflected_frames_evaluated_twice(self, cfg15, mirror, monkeypatch):
        counts = []
        frames = wavepacket._mode_sum

        def counted(config, rule, *args, **kwargs):
            counts.append(rule.nodes.size)
            return frames(config, rule, *args, **kwargs)

        monkeypatch.setattr(wavepacket, "_mode_sum", counted)
        measure_delay(WavePacketSpec.for_beta(cfg15, 6.0), mirror=mirror)
        assert counts == [140, 260]  # 128 and 256 requested, whole panels of 20

    def test_stall_names_last_change_and_budget(self, cfg15, monkeypatch):
        # reflected frames that move with every doubling never settle
        monkeypatch.setattr(wavepacket, "_mode_sum",
                            lambda config, rule, amplitudes, x, *flags, **named:
                            np.full((amplitudes.shape[0], x.size), rule.nodes.size,
                                    dtype=complex))
        with pytest.raises(ConvergenceError,
                           match=r"reflected frames stalled: last change \S+ against "
                                 r"target_tol\*scale=\S+ \(about 4096 k nodes\)"):
            measure_delay(WavePacketSpec.for_beta(cfg15, 6.0))

    def test_dispersed_packet_rejected(self, cfg15):
        # broad momentum spread at the smallest admissible launch distance:
        # the packet more than doubles its width before returning
        sigma_k = 0.7
        spec = WavePacketSpec(k_center=3.0, sigma_k=sigma_k,
                              x_start=4.81 / (2.0 * sigma_k), config=cfg15)
        with pytest.raises(DispersionError):
            measure_delay(spec)


def _direct_modes(config, ks, xs, mirror, incoming=True):
    """u_k(x) with plane waves from one exponential per (k, x).

    (e^{-ikx} + zeta e^{ikx}) / sqrt(2 pi) on x >= 0 (zeta = 1 for the
    mirror, the incoming wave left out when ``incoming`` is false), and
    Pi(beta) F(alpha x) e^{-(alpha x)^2/2} / sqrt(2 pi) on x < 0 (zero for the
    mirror), F from one scalar-beta f_epsilon call per k rather than one block.
    """
    betas = config.beta_from_k(ks)
    refl = 1.0 if mirror else zeta(betas, config)[:, None]
    modes = refl * np.exp(1j * np.outer(ks, xs))
    if incoming:
        modes += np.exp(-1j * np.outer(ks, xs))
    neg = xs < 0.0
    if neg.any():
        y = config.alpha * xs[neg]
        modes[:, neg] = 0.0 if mirror else (pi_coefficient(betas, config)[:, None]
                                            * np.array([f_epsilon(b, y) for b in betas])
                                            * np.exp(-0.5 * y * y))
    return modes / math.sqrt(2.0 * math.pi)


def _direct_frames(spec, ks, ws, modes, times):
    """psi(t, x) = sum_k w_k c(k) e^{-i Omega(k) t} u_k(x)."""
    amplitudes = (ws * spec.envelope(ks)
                  * np.exp(-1j * np.outer(times, spec.omega_of(ks))))
    return amplitudes @ modes


def _delay_grid(spec, monkeypatch):
    """The positions on which measure_delay samples the reflected packet."""
    grids = []
    frames = wavepacket._mode_sum

    def spy(config, rule, amplitudes, x, *args, **kwargs):
        grids.append(x)
        return frames(config, rule, amplitudes, x, *args, **kwargs)

    monkeypatch.setattr(wavepacket, "_mode_sum", spy)
    measure_delay(spec)
    monkeypatch.undo()
    return grids[0]


class TestPlaneWaves:
    @pytest.mark.parametrize("beta", [6.0, 40.0])
    def test_table_equals_direct_exponentials(self, cfg15, beta, monkeypatch):
        spec = WavePacketSpec.for_beta(cfg15, beta)
        window = _delay_grid(spec, monkeypatch)
        # ceil(10 sigma_k L) = 95 nodes requested, whole panels of 20
        assert np.all(np.diff(window) > 0.0) and window[0] > 0.0 and window.size == 100
        scattered = np.sort(np.concatenate([
            -np.geomspace(1e-3, 6.0, 50), [0.0], np.geomspace(1e-3, window[-1], 300)]))
        for n in (128, 256, 512, 1024):
            rule = wavepacket._k_rule(spec, n)
            assert rule.nodes.size == rule.centres.size * rule.offsets.size >= n
            for xs in (window, scattered):
                table = wavepacket._plane_waves(rule, xs)
                assert np.abs(table - np.exp(1j * np.outer(rule.nodes, xs))).max() <= 1e-13

    def test_rule_is_the_panel_rule(self, cfg15):
        # the nodes are exactly centre + offset, within an ulp of each
        # panel's mid + half x_GL; the shared weights differ from each
        # panel's own only by the rounding of the linspace panel widths
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        lo, hi = spec.k_center - 5.0 * spec.sigma_k, spec.k_center + 5.0 * spec.sigma_k
        x_gl, w_gl = np.polynomial.legendre.leggauss(20)
        for n in (128, 1024):
            rule = wavepacket._k_rule(spec, n)
            assert np.array_equal(rule.nodes, np.add.outer(rule.centres, rule.offsets).ravel())
            edges = np.linspace(lo, hi, rule.centres.size + 1)
            mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
            half = 0.5 * (edges[1:] - edges[:-1])[:, None]
            ks = (mid + half * x_gl).ravel()
            assert np.all(np.abs(rule.nodes - ks) <= np.spacing(ks))
            ws = (half * w_gl).ravel()
            assert np.all(np.abs(rule.weights - ws) <= 1e-13 * ws)

    @pytest.mark.parametrize("beta", [1.7, 2.4, 4.0, 28.2])
    def test_improper_eigenfunction_on_the_step_side(self, cfg15, beta):
        xs = np.linspace(0.0, 60.0, 601)
        k = cfg15.k_continuum(beta)
        expected = ((np.exp(-1j * k * xs) + zeta(beta, cfg15) * np.exp(1j * k * xs))
                    / math.sqrt(2.0 * math.pi))
        assert np.abs(improper_eigenfunction(beta, cfg15, xs) - expected).max() <= 1e-15


class TestPacketSums:
    """measure_delay and evolve against sums of directly exponentiated modes."""

    @pytest.mark.parametrize("beta,mirror", [(6.0, False), (6.0, True), (3.0, False),
                                             (40.0, False)])
    def test_measure_delay(self, cfg15, beta, mirror, monkeypatch):
        spec = WavePacketSpec.for_beta(cfg15, beta)
        delay = measure_delay(spec, mirror=mirror)
        times, packet_amplitudes = [], wavepacket._amplitudes

        def recorded(spec, rule, t):
            times.append(t)
            return packet_amplitudes(spec, rule, t)

        def reference(config, rule, amplitudes, xs, *flags, **named):
            # the reflected packet: the outgoing waves alone, at the sampled times
            modes = _direct_modes(cfg15, rule.nodes, xs, mirror, incoming=False)
            return _direct_frames(spec, rule.nodes, rule.weights, modes, times[-1])

        monkeypatch.setattr(wavepacket, "_amplitudes", recorded)
        monkeypatch.setattr(wavepacket, "_mode_sum", reference)
        assert abs(measure_delay(spec, mirror=mirror) - delay) <= 1e-12

    @pytest.mark.parametrize("x_lo,mirror", [(0.0, False), (0.0, True), (-4.0, False)])
    def test_evolve(self, cfg15, x_lo, mirror, monkeypatch):
        spec = WavePacketSpec.for_beta(cfg15, 6.0)
        xs = np.linspace(x_lo, spec.x_start + 12.0 * spec.sigma_x, 400)
        times = np.linspace(0.0, 40.0, 9)
        rules = []
        k_rule = wavepacket._k_rule

        def recorded(spec, n):
            rules.append(k_rule(spec, n))
            return rules[-1]

        monkeypatch.setattr(wavepacket, "_k_rule", recorded)
        psi = evolve(spec, xs, times, mirror=mirror).psi
        last = rules[-1]
        expected = _direct_frames(spec, last.nodes, last.weights,
                                  _direct_modes(cfg15, last.nodes, xs, mirror), times)
        assert np.abs(psi - expected).max() <= 1e-12 * np.abs(expected).max()


def _window_integrals(d, length):
    """integral_0^L x^j e^{i d x} dx for j = 0 and 1, in closed form.

    The first moment L^2 [e^{iu} (1/(iu) + 1/u^2) - 1/u^2], u = d L, cancels
    at small u; below |u| = 1/2 it is the series L^2 sum_n (iu)^n / (n! (n + 2)).
    """
    u = d * length
    zeroth = length * np.exp(0.5j * u) * np.sinc(u / (2.0 * np.pi))
    small = np.abs(u) < 0.5
    w = np.where(small, 1.0, u)
    first = length ** 2 * (np.exp(1j * w) * (1.0 / (1j * w) + 1.0 / w ** 2) - 1.0 / w ** 2)
    series = length ** 2 * sum((1j * u) ** n / (math.factorial(n) * (n + 2)) for n in range(16))
    return zeroth, np.where(small, series, first)


class TestDelayWindow:
    """The detector window's Gauss-Legendre rule against exact window integrals."""

    @pytest.mark.parametrize("beta0,beta,mirror", [(1.5, 6.0, False), (4.4, 9.5, False),
                                                   (1.5, 1.51, False), (1.5, 6.0, True)])
    def test_moments_match_exact_window_integrals(self, beta0, beta, mirror, monkeypatch):
        # the reflected packet sum_k a_k e^{ikx} has |psi|^2 = sum_kl a_k conj(a_l)
        # e^{i(k-l)x}: its norm and first moment on [0, L] are exact double sums
        config = PotentialConfig.from_beta0(beta0)
        spec = WavePacketSpec.for_beta(config, beta)
        delay = measure_delay(spec, mirror=mirror)
        rules, times = [], []
        panel_rule, packet_amplitudes, refine = (contour._panel_rule, wavepacket._amplitudes,
                                                 contour._refine)

        def recorded_rule(a, b, n):
            rules.append((a, b, panel_rule(a, b, n)))
            return rules[-1][2]

        def recorded_times(spec, rule, t):
            times.append(t)
            return packet_amplitudes(spec, rule, t)

        def exact(moments, *args):
            refine(moments, *args)  # the final k rule and the sampled times
            length = next(b for a, b, _ in rules if a == 0.0)
            rule = rules[-1][2]
            nodes = rule.nodes
            amplitudes = packet_amplitudes(spec, rule, times[-1]) / math.sqrt(2.0 * math.pi)
            if not mirror:
                amplitudes = amplitudes * zeta(config.beta_from_k(nodes), config)
            integrals = _window_integrals(np.subtract.outer(nodes, nodes), length)
            norm, first = (np.einsum("tk,kl,tl->t", amplitudes, z, amplitudes.conj()).real
                           for z in integrals)
            return np.stack([norm, first / spec.x_start], axis=1)

        monkeypatch.setattr(contour, "_panel_rule", recorded_rule)
        monkeypatch.setattr(wavepacket, "_amplitudes", recorded_times)
        monkeypatch.setattr(contour, "_refine", exact)
        assert abs(measure_delay(spec, mirror=mirror) - delay) <= 1e-10

    @pytest.mark.parametrize("beta0,beta", [(1.5, 6.0), (4.4, 9.5)])
    def test_half_the_window_nodes_moves_the_delay_by_rounding(self, beta0, beta, monkeypatch):
        # the derived count has margin: 60 nodes in place of 100 give the same delay
        spec = WavePacketSpec.for_beta(PotentialConfig.from_beta0(beta0), beta)
        delay = measure_delay(spec)
        panel_rule = contour._panel_rule
        monkeypatch.setattr(contour, "_panel_rule",
                            lambda a, b, n: panel_rule(a, b, n // 2 if a == 0.0 else n))
        assert abs(measure_delay(spec) - delay) < 1e-12
