"""Command-line front end.

Five commands: ``stationary`` (steady-state scattering data plus an
amplitude profile), ``evolve`` (direct time stepping to convergence),
``spectrum`` (transmission scan over wave numbers), ``resonances``
(perfect-transmission wave numbers), and ``verify`` (cross-checks the
independent solution routes against each other and prints a pass/fail
table).

Exit codes: 0 success, 1 usage problems or a failed verify, 2 invalid
model input, 3 numerical degeneracy, 4 no convergence.  All output is
deterministic; floats are printed in shortest round-trip form.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass

from .coin import coin_from_json, half_wave_plate
from .errors import (
    ModelError,
    NoConvergence,
    NumericalDegeneracy,
    UsageError,
)
from .evolution import init_lattice, run_to_convergence
from .qgraph import find_resonances, spectrum_scan, spectrum_to_csv
from .scattering import (
    AmplitudeProfile,
    Injection,
    TunnelingConfig,
    build_profile,
    config_from_json,
    flux_balance,
    profile_max_difference,
    profile_to_csv,
    resonance_residual,
    solve_closed_form,
    solve_general,
    stationary_measure,
)
from .series import t_series, t_series_limit, transmitted_tail_phase

_WALK_COMMANDS = ("stationary", "evolve", "verify")
_GRAPH_COMMANDS = ("spectrum", "resonances")


@dataclass
class RunConfig:
    """Everything one command invocation needs, already validated."""

    command: str
    tunneling: TunnelingConfig | None = None
    alpha: float | None = None
    s: float | None = None
    gm: int | None = None
    k_min: float | None = None
    k_max: float | None = None
    n_points: int = 1001
    window: tuple[int, int] | None = None
    tol: float = 1e-8
    max_steps: int | None = None
    dump_every: int | None = None
    terms: int = 64
    out: str | None = None
    fmt: str = "csv"


class _Parser(argparse.ArgumentParser):
    """argparse that reports problems as UsageError instead of exiting."""

    def error(self, message):
        raise UsageError(message)


def _parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise UsageError(f"--window expects A:B, got {text!r}")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise UsageError(f"--window bounds must be integers, got {text!r}") from None


def _parse_krange(text: str) -> tuple[float, float, int | None]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise UsageError(f"--k expects MIN:MAX or MIN:MAX:N, got {text!r}")
    try:
        k_min = float(parts[0])
        k_max = float(parts[1])
        n = int(parts[2]) if len(parts) == 3 else None
    except ValueError:
        raise UsageError(f"--k has a malformed component in {text!r}") from None
    return (k_min, k_max, n)


def _parse_barrier(text: str):
    """A coin flag value: JSON when it parses, preset name otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _add_walk_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--p", type=float, default=None, help="left-channel free phase (default 0)")
    sub.add_argument("--q", type=float, default=None, help="right-channel free phase (default 0)")
    sub.add_argument("--delta", type=float, default=None, help="per-step drive phase (default 0)")
    sub.add_argument(
        "--barrier",
        default=None,
        help="barrier coin: preset name (hadamard, identity) or JSON "
        '(e.g. \'{"hwp": 0.39}\', \'{"a": [re, im], ...}\')',
    )
    sub.add_argument("--m", type=int, default=None, help="second barrier position (default 1)")
    sub.add_argument(
        "--preset",
        default=None,
        help="named parameter set; 'corollary3' fills p=q=0, a pi/8 "
        "half-wave-plate barrier, m=3 (explicit flags override)",
    )
    sub.add_argument(
        "--config",
        default=None,
        metavar="FILE",
        help="JSON file with p, q, barrier, m, delta; mutually exclusive "
        "with the inline model flags",
    )


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="potential strength at the two marked vertices")
    sub.add_argument("--s", type=float, default=None, help="edge length")
    sub.add_argument("--m", type=int, default=None, help="second marked vertex index")
    sub.add_argument(
        "--k",
        default=None,
        metavar="MIN:MAX[:N]",
        help="wave-number range, N grid points (spectrum default 1001)",
    )
    sub.add_argument(
        "--preset",
        default=None,
        help="named parameter set; 'fig2' fills alpha=1, s=1, m=3, k=0.1:5:4096",
    )


def _add_out_flags(sub: argparse.ArgumentParser, formats: bool = True) -> None:
    sub.add_argument("--out", default=None, metavar="PATH", help="artifact file to write")
    if formats:
        sub.add_argument(
            "--format",
            default="csv",
            choices=("csv", "json"),
            dest="fmt",
            help="artifact format (default csv)",
        )


def _build_cli() -> _Parser:
    parser = _Parser(prog="qrtw", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", parser_class=_Parser)

    st = subs.add_parser("stationary", help="solve the steady state in closed form")
    _add_walk_flags(st)
    st.add_argument(
        "--window",
        default=None,
        metavar="A:B",
        help="profile window; write --window=-10:13 for a negative bound "
        "(default -10:m+10)",
    )
    _add_out_flags(st)

    ev = subs.add_parser("evolve", help="time-step the walk to convergence")
    _add_walk_flags(ev)
    ev.add_argument("--window", default=None, metavar="A:B", help="lattice window (default scales with m)")
    ev.add_argument("--tol", type=float, default=1e-8, help="per-step change threshold (default 1e-8)")
    ev.add_argument("--max-steps", type=int, default=None, dest="max_steps", help="step budget (default scales with the bounce decay)")
    ev.add_argument(
        "--dump-every",
        type=int,
        default=None,
        dest="dump_every",
        metavar="N",
        help="also write a profile snapshot every N steps (requires --out)",
    )
    _add_out_flags(ev)

    sp = subs.add_parser("spectrum", help="scan the transmission probability over k")
    _add_graph_flags(sp)
    _add_out_flags(sp)

    rs = subs.add_parser("resonances", help="locate perfect-transmission wave numbers")
    _add_graph_flags(rs)
    _add_out_flags(rs, formats=False)

    vf = subs.add_parser("verify", help="cross-check all solution routes on one model")
    _add_walk_flags(vf)
    vf.add_argument("--window", default=None, metavar="A:B", help="comparison window (default solver-chosen)")
    vf.add_argument("--tol", type=float, default=1e-8, help="evolution convergence threshold (default 1e-8)")
    vf.add_argument("--terms", type=int, default=64, help="bounce-series partial-sum length (default 64)")

    return parser


_WALK_INLINE = ("p", "q", "delta", "barrier", "m", "preset")


def _build_tunneling(args) -> TunnelingConfig:
    inline = [name for name in _WALK_INLINE if getattr(args, name) is not None]
    if args.config is not None:
        if inline:
            raise UsageError(
                "--config conflicts with inline model flags: "
                + ", ".join("--" + n for n in inline)
            )
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        return config_from_json(data)

    p, q, delta = 0.0, 0.0, 0.0
    barrier = None
    m = 1
    if args.preset is not None:
        if args.preset != "corollary3":
            raise UsageError(
                f"unknown preset {args.preset!r} for this command (expected corollary3)"
            )
        p, q = 0.0, 0.0
        barrier = half_wave_plate(math.pi / 8.0)
        m = 3
    if args.p is not None:
        p = args.p
    if args.q is not None:
        q = args.q
    if args.delta is not None:
        delta = args.delta
    if args.barrier is not None:
        barrier = coin_from_json(_parse_barrier(args.barrier))
    if args.m is not None:
        m = args.m
    if barrier is None:
        raise UsageError("no barrier coin given (use --barrier, --preset, or --config)")
    return TunnelingConfig(p=p, q=q, barrier=barrier, m=m, delta=delta)


def _build_graph(args, rc: RunConfig, need_points: bool) -> None:
    alpha, s, m, krange = None, None, None, None
    if args.preset is not None:
        if args.preset != "fig2":
            raise UsageError(
                f"unknown preset {args.preset!r} for this command (expected fig2)"
            )
        alpha, s, m, krange = 1.0, 1.0, 3, (0.1, 5.0, 4096)
    if args.alpha is not None:
        alpha = args.alpha
    if args.s is not None:
        s = args.s
    if args.m is not None:
        m = args.m
    if args.k is not None:
        krange = _parse_krange(args.k)
    missing = [
        flag
        for flag, value in (("--alpha", alpha), ("--s", s), ("--m", m), ("--k", krange))
        if value is None
    ]
    if missing:
        raise UsageError("missing required flags: " + ", ".join(missing))
    rc.alpha, rc.s, rc.gm = alpha, s, m
    rc.k_min, rc.k_max = krange[0], krange[1]
    if need_points and krange[2] is not None:
        rc.n_points = krange[2]


def parse_config(argv=None) -> RunConfig:
    """Turn an argv list into a validated RunConfig."""
    parser = _build_cli()
    args = parser.parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required (stationary, evolve, spectrum, resonances, verify)")
    rc = RunConfig(command=args.command)
    rc.out = getattr(args, "out", None)
    rc.fmt = getattr(args, "fmt", "csv")
    if args.command in _WALK_COMMANDS:
        rc.tunneling = _build_tunneling(args)
        if getattr(args, "window", None) is not None:
            rc.window = _parse_window(args.window)
        rc.tol = getattr(args, "tol", 1e-8)
        if rc.tol <= 0:
            raise UsageError(f"--tol must be positive, got {rc.tol}")
        rc.max_steps = getattr(args, "max_steps", None)
        if rc.max_steps is not None and rc.max_steps < 1:
            raise UsageError(f"--max-steps must be at least 1, got {rc.max_steps}")
        rc.dump_every = getattr(args, "dump_every", None)
        if rc.dump_every is not None:
            if rc.dump_every < 1:
                raise UsageError(f"--dump-every must be at least 1, got {rc.dump_every}")
            if rc.out is None:
                raise UsageError("--dump-every needs --out to name the snapshot files")
        rc.terms = getattr(args, "terms", 64)
        if rc.terms < 0:
            raise UsageError(f"--terms must be nonnegative, got {rc.terms}")
    else:
        _build_graph(args, rc, need_points=(args.command == "spectrum"))
    return rc


_WRITE_SLICE = 1 << 20


def _write_text(fh, text: str) -> None:
    """Write ``text`` in slices, so the encoder never copies all of it at once."""
    for i in range(0, len(text), _WRITE_SLICE):
        fh.write(text[i : i + _WRITE_SLICE])


def _write_atomic(path: str, text: str) -> None:
    """Write the whole artifact, then rename into place."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qrtw-", suffix=".part")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _write_text(fh, text)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise UsageError(f"cannot write {path}: {exc}") from None


def _cjson(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _profile_json(profile: AmplitudeProfile) -> str:
    mu = stationary_measure(profile)
    payload = {
        "x_min": profile.x_min,
        "x_max": profile.x_max,
        "psi_l": [_cjson(z) for z in profile.psi_l],
        "psi_r": [_cjson(z) for z in profile.psi_r],
        "mu": [mu[x] for x in profile.positions()],
    }
    return json.dumps(payload, indent=2) + "\n"


def _render_profile(profile: AmplitudeProfile, fmt: str) -> str:
    if fmt == "json":
        return _profile_json(profile)
    return profile_to_csv(profile)


def _run_stationary(rc: RunConfig) -> int:
    cfg = rc.tunneling
    sol = solve_closed_form(cfg)
    window = rc.window if rc.window is not None else (-10, cfg.m + 10)
    profile = build_profile(sol, cfg, window)
    try:
        residual = resonance_residual(cfg)
    except NumericalDegeneracy:
        residual = None
    payload = {
        "r": _cjson(sol.r),
        "t": _cjson(sol.t),
        "r_tilde": _cjson(sol.r_tilde),
        "t_tilde": _cjson(sol.t_tilde),
        "T": sol.T,
        "R": sol.R,
        "residual": residual,
        "method": sol.method.value,
        "delta": sol.delta,
    }
    print(json.dumps(payload, indent=2))
    if rc.out is not None:
        _write_atomic(rc.out, _render_profile(profile, rc.fmt))
    return 0


def _run_evolve(rc: RunConfig) -> int:
    state = init_lattice(rc.tunneling, rc.window)
    on_step = None
    if rc.dump_every is not None:
        base, ext = os.path.splitext(rc.out)
        every = rc.dump_every

        def on_step(st):
            if st.n % every == 0:
                _write_atomic(f"{base}_n{st.n}{ext}", _render_profile(st.profile(), rc.fmt))

    profile, report = run_to_convergence(state, tol=rc.tol, max_steps=rc.max_steps, on_step=on_step)
    payload = {
        "steps": report.steps,
        "residual": report.residual,
        "tol": report.tol,
        "rate_per_round_trip": report.rate_per_round_trip,
        "round_trip_steps": report.round_trip_steps,
        "window": list(profile.window),
    }
    print(json.dumps(payload, indent=2))
    if rc.out is not None:
        _write_atomic(rc.out, _render_profile(profile, rc.fmt))
    return 0


def _run_spectrum(rc: RunConfig) -> int:
    spec = spectrum_scan(rc.alpha, rc.s, rc.gm, rc.k_min, rc.k_max, rc.n_points)
    if rc.fmt == "json":
        payload = {
            "alpha": rc.alpha,
            "s": rc.s,
            "m": rc.gm,
            "k": spec.k.tolist(),
            "T": spec.T.tolist(),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        text = spectrum_to_csv(spec)
    if rc.out is not None:
        _write_atomic(rc.out, text)
    else:
        _write_text(sys.stdout, text)
    return 0


def _run_resonances(rc: RunConfig) -> int:
    found = find_resonances(rc.alpha, rc.s, rc.gm, rc.k_min, rc.k_max)
    payload = {
        "alpha": rc.alpha,
        "s": rc.s,
        "m": rc.gm,
        "roots": list(found.roots),
        "all_resonant": found.all_resonant,
    }
    text = json.dumps(payload, indent=2) + "\n"
    sys.stdout.write(text)
    if rc.out is not None:
        _write_atomic(rc.out, text)
    return 0


def _run_verify(rc: RunConfig) -> int:
    cfg = rc.tunneling
    sol = solve_closed_form(cfg)

    lin_sol, lin_prof = solve_general(
        {0: cfg.barrier, cfg.m: cfg.barrier},
        cfg.delta,
        Injection.LEFT,
        cfg.p,
        cfg.q,
        window=rc.window,
    )
    closed_prof = build_profile(sol, cfg, lin_prof.window)

    limit = t_series_limit(cfg)
    t_series_value = limit * transmitted_tail_phase(cfg).conjugate()
    partial = t_series(cfg, rc.terms)
    series_err = abs(partial.partial_sum - limit)

    state = init_lattice(cfg)
    evo_prof, report = run_to_convergence(state, tol=rc.tol)
    lo, hi = evo_prof.window
    evo_closed = build_profile(sol, cfg, evo_prof.window)
    evo_diff = profile_max_difference(evo_prof, evo_closed, lo + 2, hi - 2)
    probe = cfg.m + 3
    t_evolved = evo_prof.at(probe)[1] * cmath.exp(-1j * cfg.q_shifted * probe)

    inflow, outflow = flux_balance(closed_prof, (-1, cfg.m + 1))

    rows = [
        ("t closed vs linear", abs(sol.t - lin_sol.t), 1e-10),
        ("profile closed vs linear", profile_max_difference(closed_prof, lin_prof), 1e-10),
        ("t closed vs series limit", abs(t_series_value - sol.t), 1e-12),
        ("series remainder honored", max(series_err - partial.remainder_bound, 0.0), 1e-15),
        ("profile closed vs evolved", evo_diff, 1e-6),
        ("t closed vs evolved", abs(t_evolved - sol.t), 1e-6),
        ("R + T - 1", abs(sol.R + sol.T - 1.0), 1e-10),
        ("flux inflow vs outflow", abs(inflow - outflow), 1e-10),
    ]
    print(f"t closed_form   = {sol.t!r}")
    print(f"t linear_system = {lin_sol.t!r}")
    print(f"t series_limit  = {t_series_value!r}")
    print(f"t evolution     = {t_evolved!r}  (after {report.steps} steps)")
    failures = 0
    for name, value, tol in rows:
        ok = value <= tol
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'}  {name:<26s} {value:.3e} <= {tol:.0e}")
    return 0 if failures == 0 else 1


def run(rc: RunConfig) -> int:
    """Execute a parsed RunConfig; returns the process exit status."""
    if rc.command == "stationary":
        return _run_stationary(rc)
    if rc.command == "evolve":
        return _run_evolve(rc)
    if rc.command == "spectrum":
        return _run_spectrum(rc)
    if rc.command == "resonances":
        return _run_resonances(rc)
    if rc.command == "verify":
        return _run_verify(rc)
    raise UsageError(f"unknown command {rc.command!r}")


def main(argv=None) -> int:
    """Console entry point."""
    try:
        return run(parse_config(argv))
    except UsageError as exc:
        print(f"qrtw: {exc}", file=sys.stderr)
        return 1
    except NumericalDegeneracy as exc:
        print(f"qrtw: {exc}", file=sys.stderr)
        return 3
    except NoConvergence as exc:
        print(f"qrtw: {exc}", file=sys.stderr)
        return 4
    except ModelError as exc:
        print(f"qrtw: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
