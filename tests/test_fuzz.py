"""A seeded argv fuzzer over the five commands.

Each case is a random argv from a small grammar of flags and hostile
values (NaN, infinities, 1e308, 30-digit numbers, malformed and
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
"""

import json
import math
import random
import signal

import pytest

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
