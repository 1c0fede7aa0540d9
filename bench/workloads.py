"""Seeded operation lists for the four workloads and their in-process runners.

Every run executes whole rounds of operations.  The number of rounds
follows from ``--seconds`` alone (``ROUNDS_PER_SECOND`` was sized on a
2-CPU machine), never from the clock, so a run does a fixed amount of work
and two runs with one seed are identical.  Step heights and packet
energies are drawn by stratified sampling: operation i of N takes its
value from the i-th of N equal slices of the range, at a seeded offset
inside the slice, and the order is then shuffled.  Every seed therefore
covers the range with the same density, which keeps medians and tails
comparable from seed to seed.

Only numpy and stepharm are imported here, so the process that runs the
operations carries no scipy or mpmath in its memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("spectra", "states", "packets", "cli")
ROUNDS_PER_SECOND = {"spectra": 2.0, "states": 0.25, "packets": 0.8, "cli": 0.1}

# spectra: one table per step height
SPECTRA_BETA0 = (4.0, 100.0)
DELAY_OFFSETS = np.logspace(-1.0, 3.0, 2000)  # beta - beta0 of the delay table
RESONANCE_SPAN = 10.0

# states: low step heights, plus the highly excited state of contour.f_epsilon's fault
STATES_BETA0 = (2.5, 12.0)
STATES_PER_ROUND = 39
FAULT_STATE = {"beta0": 60.0, "n": 15}
GRID_STEP = 1.0 / 80.0

# packets: packet centres low enough for the interior rows to stay accurate
PACKETS_BETA0 = (1.2, 4.5)
PACKETS_MIN_ABOVE = 1.5
PACKETS_BETA_MAX = 10.0
PACKET_FRAMES = 9
PACKET_X_MIN = -6.0
PACKET_INTERIOR_POINTS = 40
PACKET_EXTERIOR_STEP = 0.1


@dataclass(frozen=True)
class Op:
    """One operation: its kind, its inputs, and whether a known fault hits it."""

    kind: str
    params: dict = field(default_factory=dict)
    known_fault: bool = False


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, int(round(seconds * ROUNDS_PER_SECOND[workload])))


def stratified(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """One value from each of ``count`` equal slices of [lo, hi), shuffled."""
    values = lo + (hi - lo) * (np.arange(count) + rng.random(count)) / count
    rng.shuffle(values)
    return values


def level_count(beta0: float) -> int:
    """Bound states of step height beta0 > 1: ceil((beta0 - 1) / 2)."""
    return int(math.ceil((beta0 - 1.0) / 2.0))


def state_grid(beta0: float, x_max: float = 3.0) -> np.ndarray:
    """Uniform grid through x = 0 covering every node of the interior states."""
    x_min = -math.ceil(math.sqrt(2.0 * beta0) + 3.0)
    return np.linspace(x_min, x_max, int(round((x_max - x_min) / GRID_STEP)) + 1)


def return_time(beta0: float, beta_center: float) -> float:
    """When a ``WavePacketSpec.for_beta`` packet is back on x > 0 (hbar=m=kappa=1).

    That is the mirror return time 2 x_start / v, plus the classical delay
    pi/omega, plus three widths sigma_x / v: the reflected packet then lies
    wholly on x >= 0 and inside the grid of ``packet_grid``.
    """
    k = math.sqrt(2.0 * (beta_center - beta0))
    sigma_x = 15.0 / k  # 1 / (2 sigma_k), sigma_k = k / 30
    return (2.0 * 6.0 * sigma_x + 3.0 * sigma_x) / k + math.pi


def packet_grid(beta0: float, beta_center: float) -> np.ndarray:
    """A few interior points on [-6, 0) and the exterior out past the packet."""
    k = math.sqrt(2.0 * (beta_center - beta0))
    sigma_x = 1.0 / (2.0 * k / 30.0)
    x_end = 6.0 * sigma_x + 12.0 * sigma_x
    interior = np.linspace(PACKET_X_MIN, 0.0, PACKET_INTERIOR_POINTS + 1)[:-1]
    return np.concatenate([interior, np.arange(0.0, x_end, PACKET_EXTERIOR_STEP)])


def _packet_inputs(rng, count):
    beta0s = stratified(rng, *PACKETS_BETA0, count)
    # the centre's share of its allowed range is stratified, so every seed
    # spreads its packets over the same energies
    shares = stratified(rng, 0.0, 1.0, count)
    lows = beta0s + PACKETS_MIN_ABOVE
    return beta0s, lows + shares * (PACKETS_BETA_MAX - lows)


def _levels_drawn(rng, beta0s) -> list[int]:
    """A level index for each step height, its share of the levels stratified."""
    shares = stratified(rng, 0.0, 1.0, len(beta0s))
    return [int(share * level_count(b)) for b, share in zip(beta0s, shares)]


def make_ops(workload: str, seed: int, rounds: int) -> list[Op]:
    """The seeded operation list of one run."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "spectra":
        return [Op("spectra", {"beta0": float(b)})
                for b in stratified(rng, *SPECTRA_BETA0, rounds)]
    if workload == "states":
        beta0s = stratified(rng, *STATES_BETA0, rounds * STATES_PER_ROUND)
        normal = [Op("states", {"beta0": float(b), "n": n})
                  for b, n in zip(beta0s, _levels_drawn(rng, beta0s))]
        ops = []
        for r in range(rounds):
            chunk = normal[r * STATES_PER_ROUND:(r + 1) * STATES_PER_ROUND]
            chunk.insert(int(rng.integers(len(chunk) + 1)),
                         Op("states", dict(FAULT_STATE), known_fault=True))
            ops.extend(chunk)
        return ops
    if workload == "packets":
        beta0s, centres = _packet_inputs(rng, 2 * rounds)
        return [Op("packets", {"beta0": float(b), "beta_center": float(c),
                               "mirror": bool(i % 2)})
                for i, (b, c) in enumerate(zip(beta0s, centres))]
    if workload == "cli":
        return make_cli_ops(rng, rounds)
    raise ValueError(f"unknown workload {workload!r}")


# -- cli ---------------------------------------------------------------------
# One round: each subcommand but verify twice per format (CSV to a file with
# its sidecar, JSON to stdout), then verify once.
CLI_KINDS = ("levels", "delay", "eigenfunction", "resonances", "wavepacket")
CLI_REPEATS = 2
CLI_CSV_NAME = "out.csv"


def _cli_args(kind: str, fmt: str, draw: dict) -> tuple[list[str], dict]:
    b0 = draw["beta0"]
    # CSV goes to a file with its manifest sidecar, JSON to stdout
    args = [kind, "--beta0", repr(b0)] + (
        ["-o", CLI_CSV_NAME] if fmt == "csv" else ["--format", "json"])
    params = {"beta0": b0, "format": fmt}
    if kind == "delay":
        params.update(beta_min=b0 + 0.1, beta_max=b0 + 20.0, steps=800)
        args += ["--beta-min", repr(params["beta_min"]), "--beta-max",
                 repr(params["beta_max"]), "--steps", "800"]
    elif kind == "eigenfunction":
        grid = state_grid(b0, x_max=4.0)
        params.update(n=draw["n"], x_min=float(grid[0]), x_max=4.0, points=len(grid))
        args += ["--n", str(draw["n"]), "--x-min", repr(params["x_min"]),
                 "--x-max", "4.0", "--points", str(len(grid))]
    elif kind == "resonances":
        params.update(beta_max=b0 + RESONANCE_SPAN)
        args += ["--beta-max", repr(params["beta_max"])]
    elif kind == "wavepacket":
        # JSON runs are the delay-free mirror reference
        params.update(beta_center=draw["beta_center"], mirror=fmt == "json",
                      t_max=return_time(b0, draw["beta_center"]))
        args += ["--beta-center", repr(params["beta_center"]),
                 "--t-max", repr(params["t_max"])]
        if params["mirror"]:
            args.append("--mirror")
    return args, params


def make_cli_ops(rng: np.random.Generator, rounds: int) -> list[Op]:
    count = 2 * CLI_REPEATS * rounds
    ranges = {"levels": (3.0, 60.0), "delay": (1.2, 20.0),
              "eigenfunction": STATES_BETA0, "resonances": (1.2, 20.0)}
    draws = {}
    for kind in CLI_KINDS:
        if kind == "wavepacket":
            beta0s, centres = _packet_inputs(rng, count)
            draws[kind] = [{"beta0": float(b), "beta_center": float(c)}
                           for b, c in zip(beta0s, centres)]
            continue
        beta0s = stratified(rng, *ranges[kind], count)
        draws[kind] = [{"beta0": float(b)} for b in beta0s]
        if kind == "eigenfunction":
            for d, n in zip(draws[kind], _levels_drawn(rng, beta0s)):
                d["n"] = n
    ops = []
    for r in range(rounds):
        round_ops = [Op("verify", {"args": ["verify"]})]
        for kind in CLI_KINDS:
            for j in range(2 * CLI_REPEATS):
                fmt = ("csv", "json")[j % 2]
                args, params = _cli_args(kind, fmt, draws[kind][2 * CLI_REPEATS * r + j])
                round_ops.append(Op(kind, {"args": args, **params}))
        rng.shuffle(round_ops)
        ops.extend(round_ops)
    return ops


# -- in-process runners ------------------------------------------------------
def run_op(op: Op) -> dict:
    """Execute one in-process operation and return its outputs."""
    import stepharm as sh

    p = op.params
    config = sh.PotentialConfig.from_beta0(p["beta0"])
    if op.kind == "spectra":
        levels = sh.solve_levels(config)
        taus = sh.delay_time(p["beta0"] + DELAY_OFFSETS, config)
        found = sh.find_resonances(config, p["beta0"] + RESONANCE_SPAN)
        return {"levels": [(lv.n, lv.beta_n, lv.k_n) for lv in levels],
                "taus": taus,
                "resonances": [(r.beta_peak, r.tau_peak, r.width) for r in found]}
    if op.kind == "states":
        levels = sh.solve_levels(config)
        level = levels[p["n"]]
        xs = state_grid(p["beta0"])
        u = sh.bound_eigenfunction(level, config, xs)
        return {"levels": [(lv.n, lv.beta_n, lv.k_n) for lv in levels],
                "xs": xs, "u": u}
    if op.kind == "packets":
        spec = sh.WavePacketSpec.for_beta(config, p["beta_center"])
        delay = sh.measure_delay(spec, mirror=p["mirror"])
        xs = packet_grid(p["beta0"], p["beta_center"])
        times = np.linspace(0.0, return_time(p["beta0"], p["beta_center"]),
                            PACKET_FRAMES)
        frames = sh.evolve(spec, xs, times)
        return {"delay": delay, "k_center": spec.k_center, "sigma_k": spec.sigma_k,
                "xs": xs, "psi": frames.psi}
    raise ValueError(f"no in-process runner for {op.kind!r}")


WARM_UP = {"spectra": Op("spectra", {"beta0": 10.5}),
           "states": Op("states", {"beta0": 6.5, "n": 1}),
           "packets": Op("packets", {"beta0": 2.5, "beta_center": 6.0, "mirror": False})}


def warm_up(workload: str) -> None:
    """Run one fixed, mid-range operation untimed; the same for every seed."""
    if workload in WARM_UP:
        run_op(WARM_UP[workload])
