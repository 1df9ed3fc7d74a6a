"""Command-line front end.

Five commands: ``stationary`` (steady-state scattering data plus an
amplitude profile), ``evolve`` (direct time stepping to convergence),
``spectrum`` (transmission scan over wave numbers), ``resonances``
(perfect-transmission wave numbers), and ``verify`` (cross-checks the
independent solution routes against each other and prints a pass/fail
table).

On two or more usable CPUs, ``spectrum`` (CSV) and ``evolve
--dump-every N`` each fork one worker (``_fork``): the first formats
alternate CSV blocks for this process to write in order, the second
renders and writes the snapshots this process sends it while it keeps
stepping.  The bytes are the serial path's.  One CPU, no ``os.fork`` or
a failed fork keep the serial path; the library never forks.  A worker
failure exits 1 with one line: a failed write's ``cannot write ...``,
else ``the worker process stopped early``.

Exit codes: 0 success, 1 usage problems, a failed write, a failed
verify or a stdout closed by its reader (nothing more is written, not
even to stderr), 2 invalid model input, 3 numerical degeneracy, 4 no
convergence.  All output is deterministic; floats are printed in
shortest round-trip form and JSON is strict (no NaN or Infinity).
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
from collections import namedtuple

import numpy as np

from .errors import ModelError, NoConvergence, NumericalDegeneracy, UsageError
from .evolution import check_work, init_lattice, run_to_convergence
from .qgraph import find_resonances, spectrum_csv_blocks, spectrum_scan
from .scattering import (
    _BLOCK,
    AmplitudeProfile,
    Injection,
    build_profile,
    check_hull_window,
    config_from_json,
    flux_balance,
    profile_max_difference,
    profile_to_csv,
    resonance_residual,
    solve_closed_form,
    solve_general,
)
from .series import t_series, t_series_limit, transmitted_tail_phase

# Named model inputs.  Walk presets are in the --config form; explicit
# flags override any preset entry.
_WALK_PRESETS = {"corollary3": {"p": 0.0, "q": 0.0, "barrier": {"hwp": math.pi / 8}, "m": 3}}
_CHAIN_PRESETS = {"fig2": {"alpha": 1.0, "s": 1.0, "m": 3, "k": (0.1, 5.0, 4096)}}
_WALK_DEFAULTS = {"p": 0.0, "q": 0.0, "delta": 0.0, "m": 1}
_WALK_INLINE = ("p", "q", "delta", "barrier", "m")
_CHAIN_INLINE = ("alpha", "s", "m", "k")


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
    """A coin flag value: JSON when it parses, preset name otherwise.
    JSON that Python cannot read (an integer past the digit limit, or
    nesting past the recursion limit) is a UsageError that does not
    echo the text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text
    except (ValueError, RecursionError) as exc:
        raise UsageError(f"--barrier cannot be read: {exc}") from None


def _checked(kind, flag: str, rule: str, ok):
    """An argparse type: ``kind(text)``, or UsageError unless ``ok(value)``."""

    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise UsageError(f"{flag} must be {rule}, got {value}")
        return value

    convert.__name__ = kind.__name__  # argparse names it in "invalid <kind> value"
    return convert


def _preset(presets: dict):
    """An argparse type mapping a preset name to its model entries."""

    def convert(name: str) -> dict:
        if name not in presets:
            raise UsageError(
                f"unknown preset {name!r} for this command (expected {', '.join(presets)})"
            )
        return presets[name]

    return convert


_tol = _checked(float, "--tol", "positive and finite", lambda v: 0 < v < math.inf)
_terms = _checked(int, "--terms", "nonnegative", lambda v: v >= 0)
_max_steps = _checked(int, "--max-steps", "at least 1", lambda v: v >= 1)
_dump_every = _checked(int, "--dump-every", "at least 1", lambda v: v >= 1)


def _add_walk_flags(sub: argparse.ArgumentParser, window_help: str) -> None:
    sub.add_argument("--p", type=float, default=None, help="left-channel free phase (default 0)")
    sub.add_argument("--q", type=float, default=None, help="right-channel free phase (default 0)")
    sub.add_argument("--delta", type=float, default=None, help="per-step drive phase (default 0)")
    sub.add_argument(
        "--barrier",
        type=_parse_barrier,
        default=None,
        help="barrier coin: preset name (hadamard, identity) or JSON "
        '(e.g. \'{"hwp": 0.39}\', \'{"a": [re, im], ...}\')',
    )
    sub.add_argument("--m", type=int, default=None, help="second barrier position (default 1)")
    sub.add_argument(
        "--preset",
        type=_preset(_WALK_PRESETS),
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
    sub.add_argument("--window", type=_parse_window, default=None, metavar="A:B", help=window_help)
    sub.set_defaults(build=_build_tunneling)


def _add_graph_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--alpha", type=float, default=None, help="potential strength at the two marked vertices")
    sub.add_argument("--s", type=float, default=None, help="edge length")
    sub.add_argument("--m", type=int, default=None, help="second marked vertex index")
    sub.add_argument(
        "--k",
        type=_parse_krange,
        default=None,
        metavar="MIN:MAX[:N]",
        help="wave-number range, N grid points (spectrum default 1001)",
    )
    sub.add_argument(
        "--preset",
        type=_preset(_CHAIN_PRESETS),
        default=None,
        help="named parameter set; 'fig2' fills alpha=1, s=1, m=3, k=0.1:5:4096",
    )
    sub.set_defaults(build=_build_chain)


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
    _add_walk_flags(st, "profile window; write --window=-10:13 for a negative bound (default -10:m+10)")
    _add_out_flags(st)
    st.set_defaults(run=_run_stationary)

    ev = subs.add_parser("evolve", help="time-step the walk to convergence")
    _add_walk_flags(ev, "lattice window (default scales with m)")
    ev.add_argument("--tol", type=_tol, default=1e-8, help="per-step change threshold, positive and finite (default 1e-8)")
    ev.add_argument("--max-steps", type=_max_steps, default=None, dest="max_steps", help="step budget (default scales with the bounce decay)")
    ev.add_argument(
        "--dump-every",
        type=_dump_every,
        default=None,
        dest="dump_every",
        metavar="N",
        help="also write a profile snapshot every N steps (requires --out)",
    )
    _add_out_flags(ev)
    ev.set_defaults(run=_run_evolve)

    sp = subs.add_parser("spectrum", help="scan the transmission probability over k")
    _add_graph_flags(sp)
    _add_out_flags(sp)
    sp.set_defaults(run=_run_spectrum)

    rs = subs.add_parser("resonances", help="locate perfect-transmission wave numbers")
    _add_graph_flags(rs)
    _add_out_flags(rs, formats=False)
    rs.set_defaults(run=_run_resonances)

    vf = subs.add_parser("verify", help="cross-check all solution routes on one model")
    _add_walk_flags(vf, "comparison window (default solver-chosen)")
    vf.add_argument("--tol", type=_tol, default=1e-8, help="evolution convergence threshold, positive and finite (default 1e-8)")
    vf.add_argument("--terms", type=_terms, default=64, help="bounce-series partial-sum length (default 64)")
    vf.set_defaults(run=_run_verify)

    return parser


def _given(args, names) -> dict:
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _build_tunneling(args) -> None:
    """Set ``args.tunneling`` from --config, or from defaults, preset and flags."""
    if args.config is not None:
        clashing = _given(args, (*_WALK_INLINE, "preset"))
        if clashing:
            raise UsageError(
                "--config conflicts with inline model flags: "
                + ", ".join("--" + n for n in clashing)
            )
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                model = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too many digits, too deep
            raise UsageError(f"config file is not valid JSON: {exc}") from None
    else:
        model = {**_WALK_DEFAULTS, **(args.preset or {}), **_given(args, _WALK_INLINE)}
        if "barrier" not in model:
            raise UsageError("no barrier coin given (use --barrier, --preset, or --config)")
    args.tunneling = config_from_json(model)


def _build_chain(args) -> None:
    """Set ``args.alpha``, ``args.s``, ``args.m`` and ``args.k`` from preset and flags."""
    model = {**(args.preset or {}), **_given(args, _CHAIN_INLINE)}
    missing = ["--" + n for n in _CHAIN_INLINE if n not in model]
    if missing:
        raise UsageError("missing required flags: " + ", ".join(missing))
    args.alpha, args.s, args.m, args.k = (model[n] for n in _CHAIN_INLINE)


def parse_config(argv=None) -> argparse.Namespace:
    """Parse argv into the namespace a command runs from, its model built and checked."""
    args = _build_cli().parse_args(argv)
    if args.command is None:
        raise UsageError("a command is required (stationary, evolve, spectrum, resonances, verify)")
    args.build(args)
    out = getattr(args, "out", None)
    if out is not None and (not os.path.basename(out) or os.path.isdir(out)):
        raise UsageError(f"--out must name a file, not a directory: {out}")
    if getattr(args, "dump_every", None) is not None and out is None:
        raise UsageError("--dump-every needs --out to name the snapshot files")
    return args


def _write_text(fh, text) -> None:
    """Write ``text``, a ``str`` or a generator of ``str`` blocks, the
    form every profile and spectrum artifact takes.

    Blocks are written as they are produced, so the whole text is never
    held.  The generator is closed however the write ends, so its
    clean-up (see :func:`_forked_map`) runs before this returns.
    """
    if isinstance(text, str):
        fh.write(text)
        return
    try:
        for block in text:
            fh.write(block)
    finally:
        text.close()


def _printable(text: str) -> str:
    """``text`` with each non-printable character (a newline, say) as
    its escape, so an error line that quotes an argument stays one line.
    :func:`main` applies it to every error line; a failed write applies
    it to the path as well, because a worker sends that text back as
    UTF-8, which a path's undecodable bytes are not."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode() for c in text)


def _create_part(path: str) -> tuple[int, str]:
    """Create a new ``.qrtw-<random>.part`` file beside ``path`` and
    return its descriptor and name, or raise the UsageError of a failed
    write."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".qrtw-{os.urandom(8).hex()}.part")
    try:
        return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666), tmp
    except OSError as exc:
        raise UsageError(f"cannot write {_printable(path)}: {exc.strerror}") from None


def _check_writable(path: str) -> None:
    """Raise now, not after a long run, the UsageError that
    :func:`_write_atomic` would raise for a missing or unwritable
    directory."""
    fd, tmp = _create_part(path)
    os.close(fd)
    os.unlink(tmp)


def _write_atomic(path: str, text) -> None:
    """Write the whole artifact (see :func:`_write_text`) to a new
    ``.qrtw-<random>.part`` file beside ``path``, then rename it into
    place; on any failure the partial file is removed.  ``os.open``
    creates it with mode 0o666, which the kernel narrows by the umask,
    as for a plain ``open``; ``O_EXCL`` refuses a name that exists,
    symlinks included."""
    fd, tmp = _create_part(path)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _write_text(fh, text)
        os.replace(tmp, path)
    except BaseException as exc:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        if isinstance(exc, OSError):
            raise UsageError(f"cannot write {_printable(path)}: {exc.strerror}") from None
        raise


def _worker_can_run() -> bool:
    """Whether a forked worker can run beside this process: ``os.fork``
    exists and two or more CPUs are usable (one, when
    ``os.sched_getaffinity`` cannot tell)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return cpus >= 2 and hasattr(os, "fork")


_STOPPED = "the worker process stopped early"
_Worker = namedtuple("_Worker", "pid pipe messages")


def _fork(serve, mode: str):
    """Fork a worker that runs ``serve(pipe)`` and return a ``_Worker``,
    or None (no :func:`_worker_can_run`, failed pipes or fork) for the
    caller to work serially.  Frames (:func:`_send`) go one way over the
    pipe; ``mode``, ``"rb"`` or ``"wb"``, is this process's end.  The
    worker inherits buffered files (an artifact, ``sys.stdout``), so it
    leaves only through ``os._exit``, which flushes none: 0 when ``serve``
    returns or meets the pipe closed here, else 1, after sending a
    UsageError's text back.  :func:`_join` it in a ``finally``."""
    if not _worker_can_run():
        return None
    fds = []
    try:
        fds += os.pipe()
        fds += os.pipe()
        pid = os.fork()
    except OSError:
        for fd in fds:
            os.close(fd)
        return None
    r, w, msg_r, msg_w = fds
    ours, theirs = (r, w) if mode == "rb" else (w, r)
    if pid == 0:
        code = 1
        try:
            os.close(ours)
            os.close(msg_r)
            with open(theirs, "wb" if mode == "rb" else "rb") as pipe:
                serve(pipe)
            code = 0
        except BrokenPipeError:  # this process closed its end: a clean end
            code = 0
        except UsageError as exc:
            os.write(msg_w, str(exc).encode())
        finally:
            os._exit(code)
    os.close(theirs)
    os.close(msg_w)
    return _Worker(pid, open(ours, mode), msg_r)


def _send(pipe, data: bytes) -> None:
    """Write one frame: the 8-byte length of ``data``, then ``data``."""
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _recv(pipe) -> bytes | None:
    """Read one frame, or None where the pipe ends between frames; a
    frame cut short is a UsageError."""
    head = pipe.read(8)
    if not head:
        return None
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    if len(head) < 8 or len(data) < size:
        raise UsageError(_STOPPED)
    return data


def _join(worker: _Worker) -> None:
    """Close this process's end of the frame pipe, reap the worker and
    raise its failure as a UsageError."""
    try:
        worker.pipe.close()
    except BrokenPipeError:  # the worker stopped reading; its status says why
        pass
    _, status = os.waitpid(worker.pid, 0)
    with open(worker.messages, "rb") as messages:
        message = messages.read().decode()
    if status:
        raise UsageError(message or _STOPPED)


def _forked_map(render, items):
    """``map(render, items)``, with a worker (:func:`_fork`) rendering
    the odd-numbered items while this process renders the even ones and
    yields every item in order, so it stays the only writer."""

    def serve(pipe):
        for item in items[1::2]:
            _send(pipe, render(item).encode())

    worker = _fork(serve, "rb") if len(items) > 1 else None
    if worker is None:
        yield from map(render, items)
        return
    try:
        for i, item in enumerate(items):
            if i % 2 == 0:
                yield render(item)
                continue
            data = _recv(worker.pipe)
            if data is None:
                raise UsageError(_STOPPED)
            yield data.decode()
    finally:
        _join(worker)


def _cjson(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _json_blocks(head: dict, arrays: dict):
    """Yield a JSON document: the ``head`` entries, then each named
    array, laid out as ``json.dumps(..., indent=2, allow_nan=False)``
    lays the whole document out.  A complex array is written as
    ``[re, im]`` pairs.  Each array is formatted :data:`_BLOCK` entries
    at a time by the C encoder, so neither its list of numbers nor the
    whole text is held."""
    yield json.dumps(head, indent=2, allow_nan=False)[:-2]
    for name, values in arrays.items():
        yield f',\n  "{name}": [\n    '
        for i in range(0, len(values), _BLOCK):
            chunk = values[i : i + _BLOCK]
            if np.iscomplexobj(chunk):
                # The encoder writes [[a,\n b],\n [c, ...]]; indent=2 puts each bracket on its own line.
                pairs = np.stack((chunk.real, chunk.imag), axis=1).tolist()
                text = json.dumps(pairs, separators=(",\n      ", ": "), allow_nan=False)
                text = "[\n      " + text[2:-2].replace("],\n      [", "\n    ],\n    [\n      ") + "\n    ]"
            else:
                text = json.dumps(chunk.tolist(), separators=(",\n    ", ": "), allow_nan=False)[1:-1]
            yield (",\n    " if i else "") + text
        yield "\n  ]"
    yield "\n}\n"


def _render_profile(profile: AmplitudeProfile, fmt: str):
    if fmt == "json":
        pl, pr = profile.psi_l, profile.psi_r
        mu = np.abs(pl) ** 2 + np.abs(pr) ** 2
        return _json_blocks({"x_min": profile.x_min, "x_max": profile.x_max}, {"psi_l": pl, "psi_r": pr, "mu": mu})
    return profile_to_csv(profile)


def _run_stationary(args) -> int:
    cfg = args.tunneling
    sol = solve_closed_form(cfg)
    window = args.window if args.window is not None else (-10, cfg.m + 10)
    check_hull_window(window, 0, cfg.m)  # build_profile's check, made whether or not it runs
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
        "method": "closed_form",
        "delta": cfg.delta,
    }
    print(json.dumps(payload, indent=2, allow_nan=False))
    if args.out is not None:
        _write_atomic(args.out, _render_profile(build_profile(sol, cfg, window), args.fmt))
    return 0


class _Snapshots:
    """The ``on_step`` of ``evolve --dump-every``: every ``every`` steps
    it writes the profile to ``<base>_n<step><ext>``.

    At the first snapshot it tries :func:`_fork`.  A worker then gets
    each snapshot as one frame, the step number (8 bytes) and the raw
    bytes of the compensated ``psi_l`` and ``psi_r``, and writes it while
    this process steps on; a full pipe (64 KiB on Linux) blocks the send.
    A send to a failed worker raises BrokenPipeError, so :meth:`close`
    must run in a ``finally``: the worker's failure it raises replaces
    that, as it replaces a NoConvergence."""

    def __init__(self, out: str, fmt: str, every: int):
        self.base, self.ext = os.path.splitext(out)
        self.fmt, self.every = fmt, every
        self.forked = False  # set at the first snapshot, whatever the fork gave
        self.worker = None

    def write(self, n: int, profile: AmplitudeProfile) -> None:
        _write_atomic(f"{self.base}_n{n}{self.ext}", _render_profile(profile, self.fmt))

    def __call__(self, st) -> None:
        if st.n % self.every:
            return
        profile = st.profile()
        if not self.forked:
            self.forked = True
            self.worker = _fork(lambda pipe: self._serve(pipe, profile.window), "wb")
        if self.worker is None:
            self.write(st.n, profile)
        else:
            _send(self.worker.pipe, b"".join((st.n.to_bytes(8, "little"), profile.psi_l, profile.psi_r)))

    def _serve(self, pipe, window: tuple[int, int]) -> None:
        """The worker: write every snapshot the pipe brings until it closes."""
        while (frame := _recv(pipe)) is not None:
            psi = np.frombuffer(frame, dtype=complex, offset=8)
            sites = len(psi) // 2
            self.write(int.from_bytes(frame[:8], "little"), AmplitudeProfile(*window, psi[:sites], psi[sites:]))

    def close(self) -> None:
        """End and reap the worker, if one runs; raise its failure."""
        worker, self.worker = self.worker, None
        if worker is not None:
            _join(worker)


_MAX_DUMP_ROWS = 10**8
"""The most rows ``evolve --dump-every`` may write: window sites times
the snapshots the step budget holds, about 10 GB of CSV."""


def _check_dump_rows(sites: int, steps: int, every: int) -> None:
    """ModelError if ``sites`` times the snapshots of ``steps`` steps,
    one every ``every``, pass :data:`_MAX_DUMP_ROWS`."""
    rows = sites * (steps // every)
    if rows > _MAX_DUMP_ROWS:
        raise ModelError(
            f"a snapshot of {sites} sites every {every} of up to {steps} steps is {rows:.1e} rows, "
            f"over the limit of {_MAX_DUMP_ROWS:.0e}; raise --dump-every or lower --max-steps, --window or --m"
        )


def _run_evolve(args) -> int:
    sites, steps = check_work(args.tunneling, args.window, args.max_steps, "--max-steps, --window or --m")
    if args.dump_every is not None:
        _check_dump_rows(sites, steps, args.dump_every)
    state = init_lattice(args.tunneling, args.window)
    snapshots = None if args.dump_every is None else _Snapshots(args.out, args.fmt, args.dump_every)
    try:
        profile, report = run_to_convergence(state, tol=args.tol, max_steps=args.max_steps, on_step=snapshots)
    finally:
        if snapshots is not None:
            snapshots.close()
    payload = {
        "steps": report.steps,
        "residual": report.residual,
        "tol": args.tol,
        "rate_per_round_trip": report.rate_per_round_trip,
        "round_trip_steps": report.round_trip_steps,
        "window": list(profile.window),
    }
    print(json.dumps(payload, indent=2, allow_nan=False))
    if args.out is not None:
        _write_atomic(args.out, _render_profile(profile, args.fmt))
    return 0


def _run_spectrum(args) -> int:
    k_min, k_max, n = args.k
    spec = spectrum_scan(args.alpha, args.s, args.m, k_min, k_max, 1001 if n is None else n)
    if args.fmt == "json":
        text = _json_blocks({"alpha": args.alpha, "s": args.s, "m": args.m}, {"k": spec.k, "T": spec.T})
    else:
        text = spectrum_csv_blocks(spec, _forked_map)
    if args.out is not None:
        _write_atomic(args.out, text)
    else:
        _write_text(sys.stdout, text)
    return 0


def _run_resonances(args) -> int:
    found = find_resonances(args.alpha, args.s, args.m, *args.k[:2])
    payload = {
        "alpha": args.alpha,
        "s": args.s,
        "m": args.m,
        "roots": list(found.roots),
        "all_resonant": found.all_resonant,
    }
    text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    sys.stdout.write(text)
    if args.out is not None:
        _write_atomic(args.out, text)
    return 0


def _run_verify(args) -> int:
    cfg = args.tunneling
    check_work(cfg, None, None, "--m")  # the evolution row runs last, on the default window and budget
    sol = solve_closed_form(cfg)

    lin_sol, lin_prof = solve_general(
        {0: cfg.barrier, cfg.m: cfg.barrier},
        cfg.delta,
        Injection.LEFT,
        cfg.p,
        cfg.q,
        window=args.window,
    )
    closed_prof = build_profile(sol, cfg, lin_prof.window)

    limit = t_series_limit(cfg)
    t_series_value = limit * transmitted_tail_phase(cfg).conjugate()
    partial = t_series(cfg, args.terms)
    series_err = abs(partial.partial_sum - limit)

    state = init_lattice(cfg)
    evo_prof, report = run_to_convergence(state, tol=args.tol)
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


_EXIT_CODES = {UsageError: 1, ModelError: 2, NumericalDegeneracy: 3, NoConvergence: 4}


def _shorten(message: str) -> str:
    """``message`` if it has at most 300 characters, else its first and
    last 130 around the count of characters cut: messages echo arguments
    of any size."""
    if len(message) <= 300:
        return message
    return f"{message[:130]} [... {len(message) - 260} characters cut ...] {message[-130:]}"


def main(argv=None) -> int:
    """Console entry point."""
    try:
        args = parse_config(argv)
        if getattr(args, "out", None) is not None:  # refused before any work or output, for every command
            _check_writable(args.out)
        code = args.run(args)
        sys.stdout.flush()  # a closed pipe then raises here, not at exit
        return code
    except tuple(_EXIT_CODES) as exc:
        print(f"qrtw: {_shorten(_printable(str(exc)))}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))
    except BrokenPipeError:
        # The reader closed stdout.  Point the descriptor at devnull so
        # the flush at interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
