"""Batch command-line interface emitting reproducible CSV/JSON artifacts.

Every subcommand accepts either the dimensionless step height (--beta0,
with hbar = mass = kappa = 1) or explicit physical constants
(--hbar/--mass/--kappa/--u0); mixing the two is an argument error.  Data
sections are deterministic: identical invocations produce byte-identical
rows, and the run manifest (which carries the timestamp) travels either
inside the JSON document or in a sidecar file next to the CSV.

Exit codes: 0 success, 1 verification failure, 2 bad arguments,
3 requested level does not exist, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, scattering, spectrum, verification, wavepacket
from .errors import ConvergenceError, DispersionError, DomainError
from .potential import PotentialConfig

_EXIT_OK = 0
_EXIT_VERIFY_FAILED = 1
_EXIT_BAD_ARGS = 2
_EXIT_MISSING_LEVEL = 3
_EXIT_NUMERICAL = 4

_PHYSICAL_FLAGS = ("hbar", "mass", "kappa", "u0")


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def _csv_text(header: list[str], rows: list[tuple]) -> str:
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _manifest(args) -> dict:
    """Run manifest: subcommand, set options by name, version, UTC timestamp."""
    parameters = {k: v for k, v in sorted(vars(args).items())
                  if k not in ("func", "output", "format")
                  and not k.startswith("_") and v is not None}
    return {"command": args.command, "parameters": parameters,
            "tool_version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat()}


def _emit(args, header: list[str], rows: list[tuple], extra: dict | None = None) -> None:
    """Write the rows with the run manifest and ``extra`` as JSON or CSV.

    JSON is one document.  CSV keeps the manifest out of the data section:
    it goes to a ``<file>.manifest.json`` sidecar, or as one line to stderr
    when the rows go to stdout.
    """
    as_json = args.format == "json"
    record = {"manifest": _manifest(args)}
    if as_json:
        record["data"] = [dict(zip(header, row)) for row in rows]
    record.update(extra or {})
    text = json.dumps(record, indent=2 if as_json or args.output else None,
                      default=float) + "\n"
    body, meta = (text, "") if as_json else (_csv_text(header, rows), text)
    if not args.output:
        sys.stdout.write(body)
        sys.stderr.write(meta)
        return
    for path, text in ((args.output, body), (args.output + ".manifest.json", meta)):
        if text:
            with open(path, "w", newline="\n") as handle:
                handle.write(text)


def _finite(text: str) -> float:
    """Argument type of every float option: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _count(text: str) -> int:
    """Argument type of the sample-count options: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--beta0", type=_finite, default=None,
                        help="dimensionless step height (hbar=m=kappa=1 units)")
    parser.add_argument("--hbar", type=_finite, default=None)
    parser.add_argument("--mass", type=_finite, default=None)
    parser.add_argument("--kappa", type=_finite, default=None)
    parser.add_argument("--u0", type=_finite, default=None,
                        help="step height in absolute units")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", "-o", default=None,
                        help="output file (default: stdout)")


def _resolve_config(args, parser: argparse.ArgumentParser) -> PotentialConfig:
    physical = {name: getattr(args, name) for name in _PHYSICAL_FLAGS
                if getattr(args, name) is not None}
    if args.beta0 is not None:
        if physical:
            parser.error("--beta0 cannot be combined with "
                         "--hbar/--mass/--kappa/--u0")
        if args.beta0 < 0.5:
            parser.error("--beta0 must be >= 0.5")
        return PotentialConfig.from_beta0(args.beta0)
    if "u0" not in physical:
        parser.error("provide either --beta0 or --u0 (with optional "
                     "--hbar/--mass/--kappa)")
    return PotentialConfig(hbar=physical.get("hbar", 1.0),
                           mass=physical.get("mass", 1.0),
                           kappa=physical.get("kappa", 1.0),
                           u0=physical["u0"])


def cmd_levels(args, parser) -> int:
    config = _resolve_config(args, parser)
    levels = spectrum.solve_levels(config)
    header = ["n", "beta_n", "energy_over_hbar_omega", "k_n", "marginal"]
    scale = config.hbar * config.omega
    rows = [(lv.n, lv.beta_n, lv.energy / scale, lv.k_n, lv.marginal)
            for lv in levels]
    _emit(args, header, rows)
    return _EXIT_OK


def cmd_delay(args, parser) -> int:
    config = _resolve_config(args, parser)
    if args.beta_min <= config.beta0:
        parser.error("--beta-min must exceed beta0")
    if args.steps < 2:
        parser.error("--steps must be >= 2")
    betas = np.linspace(args.beta_min, args.beta_max, args.steps)
    taus = scattering.delay_time(betas, config)
    half_period = np.pi / config.omega
    rows = list(zip(betas, taus / half_period))
    _emit(args, ["beta", "tau_over_half_period"], rows)
    return _EXIT_OK


def cmd_eigenfunction(args, parser) -> int:
    config = _resolve_config(args, parser)
    levels = spectrum.solve_levels(config)
    matches = [lv for lv in levels if lv.n == args.n]
    if not matches:
        print(f"error: level n={args.n} does not exist for beta0={config.beta0:g} "
              f"({len(levels)} bound state(s))", file=sys.stderr)
        return _EXIT_MISSING_LEVEL
    level = matches[0]
    xs = np.linspace(args.x_min, args.x_max, args.points)
    values = spectrum.bound_eigenfunction(level, config, xs)
    rows = [(x, v.real, v.imag, abs(v) ** 2) for x, v in zip(xs, values)]
    extra = {"level": {"n": level.n, "beta_n": level.beta_n,
                       "marginal": level.marginal}}
    _emit(args, ["x", "re_u", "im_u", "abs2_u"], rows, extra=extra)
    return _EXIT_OK


def cmd_wavepacket(args, parser) -> int:
    config = _resolve_config(args, parser)
    try:
        k_center = (args.k_center if args.k_center is not None
                    else config.k_continuum(args.beta_center))
        sigma_k = (args.sigma_k if args.sigma_k is not None
                   else k_center * wavepacket._REL_WIDTH)
        x_start = (args.x_start if args.x_start is not None
                   else wavepacket._START_WIDTHS / (2.0 * sigma_k))
        spec = wavepacket.WavePacketSpec(k_center=k_center, sigma_k=sigma_k,
                                         x_start=x_start, config=config)
    except DomainError as exc:
        parser.error(str(exc))

    beta_t = spec.beta_center
    measured = wavepacket.measure_delay(spec, mirror=args.mirror)
    analytic = 0.0 if args.mirror else scattering.delay_time(beta_t, config)
    summary = {
        "beta_center": beta_t,
        "measured_delay": measured,
        "analytic_delay": analytic,
        "relative_difference": (measured - analytic) / analytic if analytic else measured,
        "mirror": args.mirror,
    }

    times = np.linspace(0.0, args.t_max, args.frames)
    x_lo = -6.0 / config.alpha if args.include_interior else 0.0
    xs = np.linspace(x_lo, spec.x_start + 12.0 * spec.sigma_x, args.x_points)
    frames = wavepacket.evolve(spec, xs, times, mirror=args.mirror)
    rows = [(t, x, psi.real, psi.imag, abs(psi) ** 2)
            for t, frame in zip(frames.times, frames.psi)
            for x, psi in zip(frames.x_grid, frame)]
    _emit(args, ["t", "x", "re_psi", "im_psi", "abs2_psi"], rows,
          extra={"summary": summary})
    return _EXIT_OK


def cmd_resonances(args, parser) -> int:
    config = _resolve_config(args, parser)
    if args.beta_max <= config.beta0 + 1.0:
        parser.error("--beta-max must exceed beta0 + 1")
    found = scattering.find_resonances(config, args.beta_max)
    half_period = np.pi / config.omega
    rows = [(r.beta_peak, r.tau_peak / half_period, r.width) for r in found]
    _emit(args, ["beta_peak", "tau_peak_over_half_period", "width"], rows)
    return _EXIT_OK


def cmd_verify(args, parser) -> int:
    results = verification.run_all()
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        detail = f"  [{res.detail}]" if res.detail else ""
        print(f"{status}  {res.name}: residual={res.residual:.3e} "
              f"(threshold {res.threshold:.3e}){detail}")
    ok = all(res.passed for res in results)
    print(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'} "
          f"({sum(r.passed for r in results)}/{len(results)})")
    report = {"manifest": _manifest(args),
              "data": [res.as_dict() for res in results]}
    path = args.json_output or "verify_report.json"
    with open(path, "w", newline="\n") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    return _EXIT_OK if ok else _EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepharm",
        description="Quantum mechanics of the step-harmonic potential: bound "
                    "states, phase shifts, delay times, resonances and "
                    "wave-packet reflection.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("levels", help="bound-state table")
    _add_common(p)
    p.set_defaults(func=cmd_levels)

    p = sub.add_parser("delay", help="delay-time curve tau(beta)")
    _add_common(p)
    p.add_argument("--beta-min", type=_finite, required=True)
    p.add_argument("--beta-max", type=_finite, required=True)
    p.add_argument("--steps", type=int, default=500)
    p.set_defaults(func=cmd_delay)

    p = sub.add_parser("eigenfunction", help="sampled bound-state wavefunction")
    _add_common(p)
    p.add_argument("--n", type=int, required=True, help="level index")
    p.add_argument("--x-min", type=_finite, default=-6.0)
    p.add_argument("--x-max", type=_finite, default=4.0)
    p.add_argument("--points", type=_count, default=400)
    p.set_defaults(func=cmd_eigenfunction)

    p = sub.add_parser("wavepacket", help="reflect a wave packet and measure its delay")
    _add_common(p)
    center = p.add_mutually_exclusive_group(required=True)
    center.add_argument("--k-center", type=_finite, default=None)
    center.add_argument("--beta-center", type=_finite, default=None,
                        help="alternative to --k-center: continuum beta of the peak")
    p.add_argument("--sigma-k", type=_finite, default=None)
    p.add_argument("--x-start", type=_finite, default=None)
    p.add_argument("--t-max", type=_finite, default=40.0)
    p.add_argument("--frames", type=_count, default=9)
    p.add_argument("--x-points", type=_count, default=400)
    p.add_argument("--include-interior", action="store_true",
                   help="also sample x < 0 (costly eigenfunction evaluations)")
    p.add_argument("--mirror", action="store_true",
                   help="replace the reflection coefficient by 1 (delay-free reference)")
    p.set_defaults(func=cmd_wavepacket)

    p = sub.add_parser("resonances", help="delay-curve maxima")
    _add_common(p)
    p.add_argument("--beta-max", type=_finite, required=True)
    p.set_defaults(func=cmd_resonances)

    p = sub.add_parser("verify", help="run the oracle cross-check suite")
    p.add_argument("--json-output", default=None,
                   help="path of the machine-readable report "
                        "(default: verify_report.json)")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ConvergenceError, DispersionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    except DomainError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return _EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
