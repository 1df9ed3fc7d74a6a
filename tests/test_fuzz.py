"""Two seeded fuzzers: one over the five commands' argv, one over the
library's public callables.

The argv fuzzer draws each case from a small grammar of flags and
hostile values (NaN, infinities, 1e308, 30-digit numbers, malformed and
non-unitary coins, bad windows and k ranges, odd ``--out`` paths, bad
``--config`` files), run through ``main`` in this process with the
forked workers off and an alarm on each case.  Whatever the input:

- the exit code is in 0-4;
- a nonzero code prints exactly one ``qrtw: `` line of at most 300
  characters of message, except that a verify table with a FAIL row
  exits 1 with the table on stdout and nothing on stderr;
- exit 0 of ``stationary``, ``resonances`` and ``evolve`` prints strict
  JSON whose every number is finite.

The seed and the case count are fixed, and the models are kept small
(m up to 20, ``evolve --max-steps`` up to 2,000, short spectrum grids),
so the cases cost a few seconds in all.

The library fuzzer calls every public function, validating constructor
and method with each value parameter (a number, position, pair, text
or mapping, or a profile's amplitude array) either in range or drawn
from :data:`HOSTILE`, and with the object parameters (config, profile,
coin, chain, state, spectrum) held at valid objects.  Each call returns
a finite result or raises a ``QrtwError``, or an ``IndexError`` for a
position outside a profile's window or a block outside a spectrum's
grid.
"""

import cmath
import dataclasses
import enum
import json
import math
import random
import signal
import types
from decimal import Decimal

import numpy as np
import pytest

import qrtw
from qrtw import cli

COMMANDS = ("stationary", "evolve", "spectrum", "resonances", "verify")
CASES = 1200  # over all five commands
SEED = 8
ALARM_S = 3.0

_DIGITS30 = "123456789012345678901234567890"
_ODD_FLOATS = (
    "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e308", "-1e308", "1e309",
    _DIGITS30, "-" + _DIGITS30, "0." + "0" * 29 + "1", "5e-324", "0", "-0.0",
    "abc", "", "1_5", "0x10", " 1",
)
_ODD_INTS = ("0", "-1", "-7", _DIGITS30, "-" + _DIGITS30, "1e3", "2.5", "abc", "", "nan", "inf")
_COINS = (
    "hadamard", "HADAMARD", " identity ", "nosuch", "", "null", "[1, 2]", "1e999", "{", '"hadamard"',
    '{"hwp": "x"}', '{"hwp": 1e308}', '{"hwp": NaN}', '{"hwp": ' + _DIGITS30 + "}", '{"hwp": 0.3, "x": 1}',
    '{"free": [0]}', '{"free": [NaN, 0]}', '{"free": "ab"}', '{"free": [1e308, 0.5]}',
    '{"a": [1, 0]}', '{"a": [1], "b": [0, 0], "c": [0, 0], "d": [1, 0]}',
    '{"a": [2, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}',
    '{"a": [NaN, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}',
    '{"a": [1e308, 1e308], "b": [0, 0], "c": [0, 0], "d": [1, 0]}',
    '{"a": ["x", 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}',
    '{"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [0, 0]}',
)
_CONFIGS = {
    "valid": '{"p": 0.7, "q": -1.3, "barrier": "hadamard", "m": 3}',
    "driven": '{"p": 0.1, "q": 0.2, "barrier": {"hwp": 0.3}, "m": 2, "delta": 0.4}',
    "p-text": '{"p": "abc", "q": 0, "barrier": "hadamard", "m": 2}',
    "p-list": '{"p": [1], "q": 0, "barrier": "hadamard", "m": 2}',
    "delta-null": '{"p": 0, "q": 0, "barrier": "hadamard", "m": 2, "delta": null}',
    "m-text": '{"p": 0, "q": 0, "barrier": "hadamard", "m": "x"}',
    "m-null": '{"p": 0, "q": 0, "barrier": "hadamard", "m": null}',
    "m-nan": '{"p": 0, "q": 0, "barrier": "hadamard", "m": NaN}',
    "m-1e400": '{"p": 0, "q": 0, "barrier": "hadamard", "m": 1e400}',
    "m-long-int": '{"p": 0, "q": 0, "barrier": "hadamard", "m": 1' + "0" * 5000 + "}",
    "m-30-digits": '{"p": 0, "q": 0, "barrier": "hadamard", "m": ' + _DIGITS30 + "}",
    "p-1e308": '{"p": 1e308, "q": 0, "barrier": "hadamard", "m": 2}',
    "not-unitary": '{"p": 0, "q": 0, "barrier": {"a": [2, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}, "m": 2}',
    "no-m": '{"p": 0, "q": 0, "barrier": "hadamard"}',
    "no-barrier": '{"p": 0, "q": 0, "m": 2}',
    "list": "[1, 2]",
    "bad-json": "{bad",
    "empty": "",
    "not-utf8": b"\xff\xfe{}",
    "deep": "[" * 30000 + "]" * 30000,
}


class _Hang(BaseException):
    """Raised by the alarm; ``main`` catches none of its kind."""


ODD = 0.1
"""The chance that one value of a case is drawn from the hostile pools;
the other values are in range, so that many cases reach the solvers."""


def _float(rng, lo, hi) -> str:
    return rng.choice(_ODD_FLOATS) if rng.random() < ODD else repr(rng.uniform(lo, hi))


def _int(rng, lo, hi) -> str:
    return rng.choice(_ODD_INTS) if rng.random() < ODD else str(rng.randint(lo, hi))


def _window(rng) -> str:
    lo, hi = rng.randint(-30, -2), rng.randint(22, 45)
    if rng.random() >= ODD:
        return f"{lo}:{hi}"
    return rng.choice((
        f"{hi}:{lo}", f"{lo}", f"{lo}:{hi}:1", "a:b", "", f"-1:{hi}", f"{lo}:3",
        f"-{_DIGITS30}:5", f"-10:{_DIGITS30}", f"{lo}.5:{hi}", f"{lo}:nan",
    ))


def _krange(rng) -> str:
    k_min, k_max = _float(rng, 0.05, 3.0), _float(rng, 3.0, 8.0)
    if rng.random() >= ODD:
        return f"{k_min}:{k_max}" if rng.random() < 0.3 else f"{k_min}:{k_max}:{rng.randint(2, 300)}"
    n = rng.choice(("1", "0", "-4", "10000001", _DIGITS30, "1.5", "x", ""))
    return rng.choice((f"{k_max}:{k_min}", f"{k_min}:{k_max}:{n}", k_min, "::", f"{k_min}:{k_max}:3:1"))


def _flag(rng, name: str, value: str) -> list[str]:
    # the joined form lets a value that starts with "-" reach its converter
    return [f"--{name}={value}"] if rng.random() < 0.5 else [f"--{name}", value]


def _walk_model(rng, paths) -> list[str]:
    argv = []
    source = rng.random()
    if source < 0.2:
        argv += _flag(rng, "config", rng.choice(paths["configs"]))
        if rng.random() < ODD:  # a clash with an inline flag
            argv += _flag(rng, rng.choice(("p", "m", "barrier", "preset")), "1")
        return argv
    if source < 0.4:
        argv += _flag(rng, "preset", "corollary3" if rng.random() >= ODD else rng.choice(("fig2", "")))
    if source >= 0.4 or rng.random() < 0.3:
        coin = rng.choice(_COINS) if rng.random() < 2 * ODD else rng.choice(
            ("hadamard", "identity", f'{{"hwp": {rng.uniform(0, 1.6)!r}}}',
             f'{{"free": [{rng.uniform(-3, 3)!r}, {rng.uniform(-3, 3)!r}]}}')
        )
        if rng.random() >= ODD:
            argv += _flag(rng, "barrier", coin)
    for name, lo, hi in (("p", -4, 4), ("q", -4, 4), ("delta", -4, 4)):
        if rng.random() < 0.5:
            argv += _flag(rng, name, _float(rng, lo, hi))
    if rng.random() < 0.7:
        argv += _flag(rng, "m", _int(rng, 1, 20))
    return argv


def _out(rng, paths, command) -> list[str]:
    if rng.random() < 0.5:
        return []
    argv = _flag(rng, "out", rng.choice(paths["outs"][1:]) if rng.random() < 2 * ODD else paths["outs"][0])
    if command != "resonances" and rng.random() < 0.5:
        argv += _flag(rng, "format", rng.choice(("csv", "json")) if rng.random() >= ODD else "xml")
    return argv


def _argv(rng, command: str, paths) -> list[str]:
    argv = [command]
    if command in ("stationary", "evolve", "verify"):
        argv += _walk_model(rng, paths)
        if rng.random() < 0.3:  # joined, as a negative bound needs, but for the odd case
            window = _window(rng)
            argv += [f"--window={window}"] if rng.random() >= ODD else ["--window", window]
    else:
        preset = rng.random() < 0.4
        if preset:
            argv += _flag(rng, "preset", "fig2" if rng.random() >= ODD else "corollary3")
        chance = 0.5 if preset else 1.0 - ODD / 2
        for name, lo, hi in (("alpha", 0.05, 4.0), ("s", 0.05, 2.0)):
            if rng.random() < chance:
                argv += _flag(rng, name, _float(rng, lo, hi))
        if rng.random() < chance:
            argv += _flag(rng, "m", _int(rng, 1, 10))
        if rng.random() < chance:
            argv += _flag(rng, "k", _krange(rng))
    if command == "evolve":
        argv += _flag(rng, "max-steps", _int(rng, 1, 2000))
        if rng.random() < 0.5:
            argv += _flag(rng, "tol", _float(rng, 1e-10, 1e-2))
        if rng.random() < 0.2:
            argv += _flag(rng, "dump-every", _int(rng, 100, 2000))
    if command == "verify":
        if rng.random() < 0.5:
            argv += _flag(rng, "tol", _float(rng, 1e-10, 1e-2))
        if rng.random() < 0.3:
            argv += _flag(rng, "terms", _int(rng, 0, 200))
    if command != "verify":
        argv += _out(rng, paths, command)
    if rng.random() < ODD / 2:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(("--nosuch", "extra", "-x")))
    return argv


def _paths(tmp_path) -> dict:
    configs = tmp_path / "configs"
    configs.mkdir()
    for name, text in _CONFIGS.items():
        (configs / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    (tmp_path / "file.csv").write_text("")
    outs = tmp_path / "outs"
    outs.mkdir()
    return {
        "configs": [str(configs / name) for name in _CONFIGS] + [str(configs / "missing"), str(configs)],
        "outs": [  # the first is writable
            str(outs / "out.csv"), str(outs / "a\nb.csv"), str(outs / "missing" / "x.csv"),
            str(outs / "missing\ndir" / "x.csv"), str(outs), str(outs) + "/", str(tmp_path / "file.csv" / "x.csv"), "",
        ],
    }


def _finite_json(text: str) -> bool:
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    def finite(value) -> bool:
        if isinstance(value, float):
            return math.isfinite(value)
        if isinstance(value, dict):
            return all(map(finite, value.values()))
        if isinstance(value, list):
            return all(map(finite, value))
        return True

    try:
        return finite(json.loads(text, parse_constant=refuse))
    except ValueError:
        return False


def _problem(command: str, code, out: str, err: str) -> str | None:
    """What breaks the exit contract, or None."""
    if code not in (0, 1, 2, 3, 4):
        return f"exit code {code!r}"
    if code == 0:
        if err:
            return f"stderr on success: {err[:200]!r}"
        if command in ("stationary", "resonances", "evolve") and not _finite_json(out):
            return f"stdout is not strict finite JSON: {out[:200]!r}"
        return None
    if command == "verify" and code == 1 and not err and "FAIL  " in out:
        return None  # a failed cross-check prints its table, not an error line
    if not (err.startswith("qrtw: ") and err.endswith("\n") and err.count("\n") == 1):
        return f"not one qrtw: line: {err[:300]!r}"
    if len(err) - len("qrtw: \n") > 300:
        return f"error message of {len(err) - len('qrtw: ')} characters"
    return None


@pytest.mark.parametrize("command", COMMANDS)
def test_fuzzed_argv_keeps_the_exit_contract(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_worker_can_run", lambda: False)
    paths = _paths(tmp_path)
    rng = random.Random(SEED * len(COMMANDS) + COMMANDS.index(command))

    def hang(signum, frame):
        raise _Hang

    previous = signal.signal(signal.SIGALRM, hang)
    failures = []
    try:
        for _ in range(CASES // len(COMMANDS)):
            argv = _argv(rng, command, paths)
            signal.setitimer(signal.ITIMER_REAL, ALARM_S)
            try:
                code = cli.main(argv)
            except _Hang:
                code = f"no exit within {ALARM_S} s"
            except (Exception, SystemExit) as exc:  # a traceback, or argparse leaving through SystemExit
                code = f"{type(exc).__name__}: {exc}"[:300]
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            captured = capsys.readouterr()
            problem = _problem(command, code, captured.out, captured.err)
            if problem is not None:
                failures.append((argv, problem))
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert not failures, f"{len(failures)} failing cases, the first: {failures[:3]}"


HOSTILE = (
    math.nan, math.inf, -math.inf, 1e308, 10**400, 1.5, "3", b"3", None, True, (1,), (1, 2, 3), Decimal("1"),
)
LIBRARY_CASES = 3000
LIBRARY_SEED = 28
HOSTILE_CHANCE = 0.15
"""The chance that one value parameter is drawn from :data:`HOSTILE`."""


class _V:
    """A value parameter: ``valid``, or a value drawn from :data:`HOSTILE`.
    A ``valid`` tuple, list or dict may hold more value parameters."""

    def __init__(self, valid):
        self.valid = valid


def _draw(rng, spec):
    if isinstance(spec, _V):
        return rng.choice(HOSTILE) if rng.random() < HOSTILE_CHANCE else _draw(rng, spec.valid)
    if isinstance(spec, (tuple, list)):
        return type(spec)(_draw(rng, item) for item in spec)
    if isinstance(spec, dict):
        return {_draw(rng, key): _draw(rng, value) for key, value in spec.items()}
    return spec() if isinstance(spec, types.FunctionType) else spec  # a function makes a fresh object


# Records that store what they are given, the exception classes and the Injection enum
# build nothing from their arguments that needs checking.
_UNCHECKED = {
    "BetaDecomposition", "Coin", "ConvergenceReport", "EdgeWave", "Injection", "ResonanceSet", "SeriesResult",
    "StationarySolution",
} | {name for name in qrtw.__all__ if isinstance(getattr(qrtw, name), type) and issubclass(getattr(qrtw, name), Exception)}


def _library_calls():
    """(callable, argument specs) for every public callable but the :data:`_UNCHECKED` ones."""
    cfg = qrtw.TunnelingConfig(p=0.7, q=-1.3, barrier=qrtw.hadamard(), m=3)
    sol = qrtw.solve_closed_form(cfg)
    prof = qrtw.build_profile(sol, cfg, (-5, 8))
    gp = qrtw.GraphParams(1.0, 1.0, 3, 0.7)
    spec = qrtw.spectrum_scan(1.0, 1.0, 3, 0.1, 5.0, 40)
    u = qrtw.hadamard()

    def state():
        return qrtw.init_lattice(cfg, (-12, 15))

    def pair(lo, hi):
        return _V((_V(lo), _V(hi)))

    def entry(re):
        return _V([_V(re), _V(0)])

    model = {"p": _V(0.7), "q": _V(-1.3), "barrier": _V("hadamard"), "m": _V(3), "delta": _V(0.1)}
    chain = (_V(1.0), _V(1.0), _V(3), _V(0.1), _V(5.0))
    return [
        (qrtw.profile_from_csv, _V("".join(qrtw.profile_to_csv(prof)))),
        (qrtw.profile_to_csv, prof),
        (qrtw.spectrum_csv_blocks, spec),
        (qrtw.beta_decompose, u),
        (qrtw.coin_from_json, _V({"hwp": _V(0.3)})),
        (qrtw.coin_from_json, _V({"free": _V([_V(0.2), _V(-0.4)])})),
        (qrtw.coin_from_json, _V({"a": entry(1), "b": entry(0), "c": entry(0), "d": entry(1)})),
        (qrtw.determinant, u),
        (qrtw.free_coin, _V(0.2), _V(-0.4)),
        (qrtw.hadamard,),
        (qrtw.half_wave_plate, _V(0.3)),
        (qrtw.identity_coin,),
        (qrtw.make_coin, _V(1), _V(0), _V(0), _V(1j)),
        (qrtw.unitarity_residual, _V(1), _V(0), _V(0), _V(1j)),
        (qrtw.EvolutionState, cfg, _V(-12), _V(15)),
        (qrtw.init_lattice, cfg, pair(-12, 15)),
        (qrtw.norm_check, state),
        (qrtw.run_to_convergence, state, _V(1e-8), _V(2000)),
        (qrtw.step, state),
        (lambda s: s.profile(), state),
        (qrtw.GraphParams, _V(1.0), _V(1.0), _V(3), _V(0.7)),
        (qrtw.Spectrum, *chain, _V(40)),
        (qrtw.edge_wave, prof, gp, _V(2), _V("rightward")),
        (qrtw.find_resonances, *chain),
        (qrtw.spectrum_scan, *chain, _V(40), _V(1)),
        (qrtw.to_tunneling_config, gp),
        (qrtw.transmission_at_k, gp),
        (qrtw.vertex_coin, _V(1.0), _V(0.7), _V(1.0)),
        (spec.block, _V(8), _V(30)),
        (spec.k_block, _V(8), _V(30)),
        (qrtw.edge_wave(prof, gp, 2, "rightward").value, _V(0.5)),
        (qrtw.AmplitudeProfile, _V(0), _V(2), _V(np.ones(3)), _V(np.zeros(3))),
        (prof.at, _V(3)),
        (qrtw.TunnelingConfig, _V(0.7), _V(-1.3), u, _V(3), _V(0.1)),
        (qrtw.build_profile, sol, cfg, pair(-5, 8)),
        (qrtw.config_from_json, _V(model)),
        (qrtw.flux_balance, prof, pair(-1, 4)),
        (qrtw.profile_max_difference, prof, prof, _V(-3), _V(6)),
        (qrtw.resonance_residual, cfg),
        (qrtw.solve_closed_form, cfg),
        (qrtw.solve_general, _V({_V(0): u, _V(3): u}), _V(0.1), _V(qrtw.Injection.RIGHT), _V(0.7), _V(-1.3), pair(-5, 8)),
        (qrtw.t_magnitude_via_beta, cfg),
        (qrtw.t_series, cfg, _V(20)),
        (qrtw.t_series_limit, cfg),
        (qrtw.transmitted_tail_phase, cfg),
    ]


def _finite(value) -> bool:
    """Whether every number ``value`` holds is finite; a generator is
    read to its end."""
    if value is None or isinstance(value, (bool, int, str, enum.Enum)):
        return True
    if isinstance(value, (float, complex)):
        return cmath.isfinite(value)
    if isinstance(value, np.ndarray):
        return bool(np.isfinite(value).all())
    if isinstance(value, (tuple, list, types.GeneratorType)):
        return all(map(_finite, value))
    if dataclasses.is_dataclass(value):
        return all(_finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise TypeError(f"no finiteness rule for a {type(value).__name__}")


def test_library_calls_cover_the_public_names():
    called = {getattr(fn, "__name__", "") for fn, *_ in _library_calls()}
    assert sorted(set(qrtw.__all__) - _UNCHECKED - called) == []


def test_fuzzed_library_calls_return_finite_results_or_documented_errors():
    rng = random.Random(LIBRARY_SEED)
    calls = _library_calls()
    failures = []
    for _ in range(LIBRARY_CASES):
        fn, *specs = rng.choice(calls)
        args = [_draw(rng, spec) for spec in specs]
        try:
            if not _finite(fn(*args)):
                failures.append((fn, args, "a result that is not finite"))
        except qrtw.QrtwError:
            pass
        except IndexError:
            if getattr(fn, "__name__", "") not in ("at", "block", "k_block"):
                failures.append((fn, args, "IndexError"))
        except Exception as exc:
            failures.append((fn, args, f"{type(exc).__name__}: {exc}"[:200]))
    assert not failures, f"{len(failures)} failing calls, the first: {failures[:3]}"
