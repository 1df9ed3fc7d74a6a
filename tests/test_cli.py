"""Command-line behavior: outputs, exit codes, determinism."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import qrtw
from qrtw import (
    build_profile,
    config_from_json,
    profile_from_csv,
    solve_closed_form,
    spectrum_csv_blocks,
    spectrum_scan,
)
from qrtw import cli
from qrtw.cli import main, parse_config
from qrtw.errors import UsageError
from qrtw.artifacts import _BLOCK


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stationary_reports_scattering_data(capsys):
    code, out, _ = _run(
        capsys,
        "stationary",
        "--p", "1.5707963", "--q", "1.5707963",
        "--barrier", "hadamard", "--m", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["T"] == pytest.approx(1.0 / 9.0, abs=1e-6)
    assert data["R"] == pytest.approx(8.0 / 9.0, abs=1e-6)
    assert data["method"] == "closed_form"


def test_stationary_preset_is_transparent(capsys):
    code, out, _ = _run(capsys, "stationary", "--preset", "corollary3")
    assert code == 0
    data = json.loads(out)
    assert data["t"][0] == pytest.approx(1.0)
    assert data["t"][1] == pytest.approx(0.0, abs=1e-14)
    assert data["residual"] == pytest.approx(0.0, abs=1e-14)


def test_stationary_profile_artifact(tmp_path, capsys):
    out_file = tmp_path / "profile.csv"
    code, _, _ = _run(
        capsys,
        "stationary", "--preset", "corollary3",
        "--window=-3:5", "--out", str(out_file),
    )
    assert code == 0
    prof = profile_from_csv(out_file.read_text())
    assert prof.window == (-3, 5)


def test_stationary_json_artifact(tmp_path, capsys):
    out_file = tmp_path / "profile.json"
    code, _, _ = _run(
        capsys,
        "stationary", "--preset", "corollary3",
        "--out", str(out_file), "--format", "json",
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["x_min"] == -10
    assert len(data["psi_l"]) == len(data["psi_r"]) == len(data["mu"])


def test_config_file_replaces_inline_flags(tmp_path, capsys):
    cfg_file = tmp_path / "model.json"
    cfg_file.write_text(
        json.dumps({"p": 1.5707963, "q": 1.5707963, "barrier": "hadamard", "m": 2})
    )
    code, out, _ = _run(capsys, "stationary", "--config", str(cfg_file))
    assert code == 0
    assert json.loads(out)["T"] == pytest.approx(1.0 / 9.0, abs=1e-6)


def test_config_conflicts_with_inline(tmp_path, capsys):
    cfg_file = tmp_path / "model.json"
    cfg_file.write_text(json.dumps({"p": 0, "q": 0, "barrier": "hadamard", "m": 2}))
    code, _, err = _run(capsys, "stationary", "--config", str(cfg_file), "--m", "3")
    assert code == 1
    assert "--m" in err


def test_missing_barrier_is_usage_error(capsys):
    code, _, err = _run(capsys, "stationary", "--m", "2")
    assert code == 1
    assert "barrier" in err


def test_exit_code_model_error(capsys):
    code, _, _ = _run(
        capsys,
        "stationary",
        "--barrier", '{"a": [1, 0], "b": [1, 0], "c": [0, 0], "d": [1, 0]}',
    )
    assert code == 2


@pytest.mark.parametrize("flag", ["--p=nan", "--q=-inf", "--delta=inf"])
def test_non_finite_phase_is_model_error(capsys, flag):
    code, out, err = _run(capsys, "stationary", "--barrier", "hadamard", flag)
    assert code == 2
    assert out == ""
    assert err.startswith("qrtw:") and "finite" in err


@pytest.mark.parametrize("barrier", ['{"free": [1, 2, 3]}', '{"hwp": "x"}'])
def test_malformed_coin_preset_is_model_error(capsys, barrier):
    code, _, err = _run(capsys, "stationary", "--barrier", barrier)
    assert code == 2
    assert err.startswith("qrtw:")
    assert "Traceback" not in err


def test_exit_code_degeneracy(capsys):
    code, _, err = _run(
        capsys,
        "stationary",
        "--p", "0", "--q", "0",
        "--barrier", '{"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [0, 0]}',
        "--m", "2",
    )
    assert code == 3
    assert err.startswith("qrtw:")


def test_exit_code_no_convergence(capsys):
    code, _, _ = _run(capsys, "evolve", "--preset", "corollary3", "--max-steps", "3")
    assert code == 4


def test_unknown_command_and_bad_window(capsys):
    assert _run(capsys, "transmogrify")[0] == 1
    assert _run(capsys, "stationary", "--preset", "corollary3", "--window", "abc")[0] == 1


def test_evolve_report_and_artifact(tmp_path, capsys):
    out_file = tmp_path / "final.csv"
    code, out, _ = _run(
        capsys, "evolve", "--preset", "corollary3", "--out", str(out_file)
    )
    assert code == 0
    report = json.loads(out)
    assert report["steps"] > 0
    assert report["residual"] < report["tol"] == 1e-8
    assert report["round_trip_steps"] == 6
    prof = profile_from_csv(out_file.read_text())
    assert prof.window == (-50, 53)


def test_evolve_frees_the_state_before_the_final_profile_is_rendered(tmp_path, capsys, monkeypatch):
    # the stepping arrays, about 150 bytes a site, would otherwise add to the render's peak memory
    states = []
    init_lattice, write_atomic = cli.init_lattice, cli._write_atomic

    def init(*args):
        state = init_lattice(*args)
        states.append(weakref.ref(state))
        return state

    def write(path, text):
        assert states[0]() is None
        write_atomic(path, text)

    monkeypatch.setattr(cli, "init_lattice", init)
    monkeypatch.setattr(cli, "_write_atomic", write)
    code, _, err = _run(capsys, "evolve", "--preset", "corollary3", "--out", str(tmp_path / "run.csv"))
    assert code == 0 and err == ""
    assert len(states) == 1


def test_evolve_snapshots(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, out, _ = _run(
        capsys,
        "evolve", "--preset", "corollary3",
        "--out", str(out_file), "--dump-every", "100",
    )
    assert code == 0
    steps = json.loads(out)["steps"]
    dumps = sorted(p.name for p in tmp_path.glob("run_n*.csv"))
    assert len(dumps) == steps // 100
    assert "run_n100.csv" in dumps
    profile_from_csv((tmp_path / "run_n100.csv").read_text())


def test_dump_every_requires_out(capsys):
    code, _, err = _run(capsys, "evolve", "--preset", "corollary3", "--dump-every", "5")
    assert code == 1
    assert "--out" in err


def test_spectrum_stdout_csv(capsys):
    code, out, _ = _run(capsys, "spectrum", "--alpha", "1", "--s", "1", "--m", "3", "--k", "0.5:1.5:33")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,T" and len(lines) == 34
    assert float(lines[1].split(",")[0]) == pytest.approx(0.5)


def test_spectrum_json_format(tmp_path, capsys):
    out_file = tmp_path / "spec.json"
    code, _, _ = _run(
        capsys,
        "spectrum", "--preset", "fig2", "--out", str(out_file), "--format", "json",
    )
    assert code == 0
    data = json.loads(out_file.read_text())
    assert data["alpha"] == 1.0
    assert len(data["k"]) == len(data["T"]) == 4096


def test_resonances_json(capsys):
    code, out, _ = _run(capsys, "resonances", "--alpha", "1", "--s", "1", "--m", "3", "--k", "0.1:2")
    assert code == 0
    data = json.loads(out)
    assert data["all_resonant"] is False
    assert any(abs(r - 0.725) < 1e-3 for r in data["roots"])


def test_resonances_preset_and_missing_flags(capsys):
    code, out, _ = _run(capsys, "resonances", "--preset", "fig2")
    assert code == 0
    assert len(json.loads(out)["roots"]) == 5
    code, _, err = _run(capsys, "resonances", "--alpha", "1")
    assert code == 1
    assert "--s" in err and "--k" in err


def test_preset_names_are_command_specific(capsys):
    assert _run(capsys, "spectrum", "--preset", "corollary3")[0] == 1
    assert _run(capsys, "stationary", "--preset", "fig2")[0] == 1


def test_verify_passes_on_transparent_preset(capsys):
    code, out, _ = _run(capsys, "verify", "--preset", "corollary3")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 8


def test_verify_runs_with_drive(capsys):
    code, out, _ = _run(
        capsys,
        "verify",
        "--p", str(math.pi / 2), "--q", str(math.pi / 2),
        "--barrier", "hadamard", "--m", "2", "--delta", str(math.pi),
    )
    assert code == 0
    assert "FAIL" not in out


def test_outputs_are_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    _, text_a, _ = _run(capsys, "stationary", "--preset", "corollary3", "--out", str(out_a))
    _, text_b, _ = _run(capsys, "stationary", "--preset", "corollary3", "--out", str(out_b))
    assert text_a == text_b
    assert out_a.read_bytes() == out_b.read_bytes()


def test_out_path_must_be_writable(tmp_path, capsys):
    target = tmp_path / "missing" / "deep" / "profile.csv"
    code, _, err = _run(capsys, "stationary", "--preset", "corollary3", "--out", str(target))
    assert code == 1
    assert err == f"qrtw: cannot write {target}: No such file or directory\n"


@pytest.mark.parametrize(
    "argv",
    [("resonances", "--preset", "fig2"), ("stationary", "--preset", "corollary3")],
    ids=["resonances", "stationary"],
)
def test_unwritable_out_is_refused_before_any_output(tmp_path, capsys, argv):
    # both once printed their whole result to stdout before the write failed
    target = tmp_path / "missing" / "result.out"
    code, out, err = _run(capsys, *argv, "--out", str(target))
    assert code == 1 and out == ""
    assert err == f"qrtw: cannot write {target}: No such file or directory\n"


def test_stationary_checks_the_window_but_builds_no_profile_without_out(capsys, no_window_arrays):
    # a 3,000,011-site window once took a profile build the output never used
    code, out, err = _run(capsys, "stationary", "--preset", "corollary3", "--window", "0:5")
    assert code == 2 and out == ""
    assert err == "qrtw: window [0, 5] must contain [-1, 4]\n"
    _, expected, _ = _run(capsys, "stationary", "--preset", "corollary3")
    code, out, err = _run(capsys, "stationary", "--preset", "corollary3", "--window=-10:3000000")
    assert code == 0 and err == ""
    assert out == expected


def test_unwritable_path_with_a_newline_is_one_error_line(tmp_path, capsys):
    target = tmp_path / "a\nb" / "c.csv"
    code, out, err = _run(capsys, "spectrum", "--preset", "fig2", "--out", str(target))
    assert code == 1 and out == ""
    assert err == f"qrtw: cannot write {tmp_path}/a\\nb/c.csv: No such file or directory\n"


def test_help_exits_cleanly():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_parse_config_round_trip():
    rc = parse_config(["evolve", "--preset", "corollary3", "--tol", "1e-9"])
    assert rc.command == "evolve"
    assert rc.tol == 1e-9
    assert rc.tunneling.m == 3
    assert rc.tunneling.p == 0.0


def _numpy_dispatch() -> str:
    """numpy's version and the SIMD dispatch targets it uses on this CPU."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    used = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return f"numpy {np.__version__}, baseline {umath.__cpu_baseline__}, dispatch {used} of {umath.__cpu_dispatch__}"


def _assert_digest(data: bytes, expected: str) -> None:
    """Assert an artifact's sha256.  A mismatch names numpy's version and
    dispatch level, since a numpy kernel may round differently at another."""
    got = hashlib.sha256(data).hexdigest()
    assert got == expected, f"sha256 {got}, pinned {expected}; {_numpy_dispatch()}"


# Digests of the spectrum artifacts, fixed from the per-row formatter
# that preceded the block-wise one; the bytes must never change.
@pytest.mark.pinned_bytes
def test_spectrum_stdout_bytes_are_pinned(capsys):
    code, out, _ = _run(capsys, "spectrum", "--preset", "fig2")
    assert code == 0
    _assert_digest(out.encode(), "ca59ecb8d1a6e2f1895c201a794245faff468b8a57a9300a7e8fa4773687c374")


@pytest.mark.pinned_bytes
def test_spectrum_json_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "spec.json"
    code, _, _ = _run(capsys, "spectrum", "--preset", "fig2", "--format", "json", "--out", str(out_file))
    assert code == 0
    _assert_digest(out_file.read_bytes(), "bc7ef4a83a428dd590ea563ac2a4dafbe370efa40ae64d677969d547875cfdb3")


@pytest.mark.pinned_bytes
def test_multi_block_spectrum_bytes_are_pinned(tmp_path, capsys):
    # 100000 rows span more than one formatting block
    out_file = tmp_path / "spec.csv"
    code, _, _ = _run(
        capsys,
        "spectrum", "--alpha", "2.5", "--s", "0.7", "--m", "5", "--k", "0.1:5:100000",
        "--out", str(out_file),
    )
    assert code == 0
    _assert_digest(out_file.read_bytes(), "8abcb3009b1ebe7a50d410c483f9f03f5b15579814b88b634c4d59d7a184007f")


@pytest.mark.pinned_bytes
def test_multi_block_spectrum_json_bytes_are_pinned(tmp_path, capsys):
    # fixed from the document built whole by one json.dumps, before streaming
    out_file = tmp_path / "spec.json"
    code, _, _ = _run(
        capsys,
        "spectrum", "--alpha", "2.5", "--s", "0.7", "--m", "5", "--k", "0.1:5:100000",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    _assert_digest(out_file.read_bytes(), "8b442c799f7ab0e7143bd9742dfbe39bd7a9fdd68d8060f5e3d44a94c90d7e5c")


def test_resonances_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "roots.json"
    code, out, _ = _run(capsys, "resonances", "--preset", "fig2", "--out", str(out_file))
    assert code == 0
    _assert_digest(out.encode(), "2b8773e08d07da1766a07699191d457a5f80e722e595baeb6c207c35db7b7767")
    _assert_digest(out_file.read_bytes(), "2b8773e08d07da1766a07699191d457a5f80e722e595baeb6c207c35db7b7767")


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--preset", "fig2", "--alpha", "nan"),
        ("spectrum", "--preset", "fig2", "--alpha", "inf"),
        ("spectrum", "--preset", "fig2", "--s", "inf"),
        ("spectrum", "--preset", "fig2", "--k", "0.1:inf:4"),
        ("resonances", "--preset", "fig2", "--alpha", "nan"),
    ],
)
def test_non_finite_graph_input_is_model_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qrtw:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("resonances", "--preset", "fig2", "--k", "0.1:1e300"),
        ("spectrum", "--preset", "fig2", "--k", "0.1:5:1000000000"),
    ],
)
def test_oversize_graph_request_is_model_error(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qrtw:") and "limit" in err
    assert "Traceback" not in err


# Digests of the evolve artifacts, fixed from the stepper that built a
# new state per step; stepping in place must not change a bit.
def test_evolve_snapshot_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "run.csv"
    code, out, _ = _run(
        capsys,
        "evolve", "--preset", "corollary3", "--out", str(out_file), "--dump-every", "100",
    )
    assert code == 0
    _assert_digest(out.encode(), "a0b1e517319ee321d6efdc619f65e7ff9451cef59e95092f3fb603ed32454e48")
    _assert_digest(out_file.read_bytes(), "22c2cc022b5831e399f5bb99b8571712dce5e4c8acc3edeccf44745bb5c2a72e")
    snapshot = (tmp_path / "run_n100.csv").read_bytes()
    _assert_digest(snapshot, "d08c1e69db7f7b307fbca76aeaeaf1bb0caaba84a79e3f40be254f5d9adea4dc")


@pytest.mark.pinned_bytes
def test_driven_evolve_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "drive.json"
    code, out, _ = _run(
        capsys,
        "evolve", "--preset", "corollary3", "--delta", "0.4",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    _assert_digest(out.encode(), "bb8e557bf738fc6e49a2a4098f892b581d828e45dcfccd0297d4abdc531a2c89")
    _assert_digest(out_file.read_bytes(), "20d52bce0f0b4fe48d2ccdacd548a41317bce10150f5cf828dd06ffcf03dbd95")


@pytest.mark.parametrize(
    "argv",
    [
        ("stationary", "--preset", "corollary3", "--m", "1000000000"),
        ("evolve", "--preset", "corollary3", "--window=-1000000000:5"),
        ("verify", "--preset", "corollary3", "--m", "1000000000"),
    ],
)
def test_oversize_window_is_model_error(capsys, no_window_arrays, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qrtw:") and "limit" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, lower",
    [
        (("evolve", "--barrier", "hadamard", "--m", "100000", "--tol", "1e-300"), "--max-steps, --window or --m"),
        (("verify", "--barrier", "hadamard", "--m", "100000"), "--m"),
    ],
    ids=["evolve", "verify"],
)
def test_days_of_stepping_are_refused_before_they_start(capsys, no_window_arrays, argv, lower):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == (
        "qrtw: evolving 2100041 sites for up to 20000201 steps is 4.2e+13 site-steps, "
        f"over the limit of 1e+10; lower {lower}\n"
    )


def test_snapshot_rows_are_refused_before_the_first_step(tmp_path, capsys, no_window_arrays):
    # 4,241 sites and the default budget of 40,201 steps: a snapshot every step is 1.7e8 rows
    argv = ("evolve", "--p", "0.7", "--q", "-1.3", "--barrier", "hadamard", "--m", "200", "--out", str(tmp_path / "x.csv"))
    code, out, err = _run(capsys, *argv, "--dump-every", "1")
    assert code == 2 and out == ""
    assert err == (
        "qrtw: a snapshot of 4241 sites every 1 of up to 40201 steps is 1.7e+08 rows, over the limit of 1e+08; "
        "raise --dump-every or lower --max-steps, --window or --m\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_snapshot_row_limit_admits_the_snapshot_run_and_refuses_past_it():
    cli._check_dump_rows(4241, 40200, 200)  # the evolve-snapshots run: 201 snapshots at most
    cli._check_dump_rows(10**4, 10**4 * 200, 200)
    with pytest.raises(qrtw.ModelError, match=r"is 1\.0e\+08 rows, over the limit of 1e\+08"):
        cli._check_dump_rows(10**4, (10**4 + 1) * 200, 200)


def test_unwritable_out_is_refused_before_the_first_step(tmp_path, capsys, no_window_arrays):
    target = tmp_path / "missing" / "run.csv"
    code, out, err = _run(capsys, "evolve", "--preset", "corollary3", "--out", str(target), "--dump-every", "10")
    assert code == 1 and out == ""
    assert err == f"qrtw: cannot write {target}: No such file or directory\n"


def test_budget_line_prints_the_last_step_residual(capsys):
    argv = ("evolve", "--p", "0.7", "--q", "-1.3", "--barrier", "hadamard", "--m", "40", "--max-steps", "1000")
    code, out, err = _run(capsys, *argv)
    assert code == 4 and out == ""
    assert err == "qrtw: no convergence after 1000 steps: residual 3.906e-03 above tol 1.000e-08\n"


def test_writable_out_leaves_no_probe_file(tmp_path, capsys):
    code, _, err = _run(capsys, "evolve", "--preset", "corollary3", "--out", str(tmp_path / "run.csv"))
    assert code == 0 and err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


# Digests of the walk-command outputs, fixed while presets and inline
# flags were still turned into a model by hand; routing them through
# config_from_json must not change a byte.
def test_stationary_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "st.csv"
    code, out, _ = _run(capsys, "stationary", "--preset", "corollary3", "--out", str(out_file))
    assert code == 0
    _assert_digest(out.encode(), "7f2e20540994ef219ecf32b87ec70c0242ba6ba444a27ebb3658cbfc48913fd2")
    _assert_digest(out_file.read_bytes(), "8122e33839916ae97b06415ee52ebfb94333e18a1f0f6a2adbc774a44ef51396")


@pytest.mark.pinned_bytes
def test_driven_stationary_bytes_are_pinned(tmp_path, capsys):
    out_file = tmp_path / "st.json"
    code, out, _ = _run(
        capsys,
        "stationary", "--preset", "corollary3", "--delta", "0.4", "--window=-7:12",
        "--format", "json", "--out", str(out_file),
    )
    assert code == 0
    _assert_digest(out.encode(), "e23b8d8cc9dd339079c2bb6c0b4861f3e877a2d5c20bafc79a5521fbf4d3d0b2")
    _assert_digest(out_file.read_bytes(), "88d0e5d7fa187c4b654ceb1cdd07904f484dc3917fb98833bbbf854bfd18cfe0")


_THREE_BLOCKS = (
    "stationary", "--p", "0.7", "--q", "-1.3", "--barrier", '{"hwp": 0.3}', "--m", "7", "--delta", "0.4",
    "--window=-20000:20000",
)


# 40,001 sites span three blocks; fixed from the profile built whole as
# one string, before it was streamed block by block.
@pytest.mark.parametrize(
    "fmt, digest",
    [
        ("csv", "e6b2be01796ac2e3214c08e47db07cca3bd078923905085505df27de4a76033e"),
        pytest.param("json", "851b78f882f08646348866d226e3c08eaa08a7a7484326be144c91a3463c6066", marks=pytest.mark.pinned_bytes),
    ],
    ids=["csv", "json"],
)
def test_multi_block_profile_bytes_are_pinned(tmp_path, capsys, fmt, digest):
    out_file = tmp_path / f"st.{fmt}"
    code, out, _ = _run(capsys, *_THREE_BLOCKS, "--format", fmt, "--out", str(out_file))
    assert code == 0
    _assert_digest(out.encode(), "777035a2df456a285dff057ca57a4d00701f21289bb8b1e4c4ebc9c68eb0cb7e")
    _assert_digest(out_file.read_bytes(), digest)


@pytest.mark.pinned_bytes
def test_verify_bytes_are_pinned(capsys):
    code, out, _ = _run(capsys, "verify", "--preset", "corollary3", "--delta", "0.4")
    assert code == 0
    _assert_digest(out.encode(), "766bb9c40c06c372b4d9f1b69ae47c1adc2f6a04be8af92fe0244e2a591b8798")


@pytest.mark.parametrize(
    "text",
    [
        '{"p": "abc", "q": 0, "barrier": "hadamard", "m": 2}',
        '{"p": [1], "q": 0, "barrier": "hadamard", "m": 2}',
        '{"p": 0, "q": 0, "barrier": "hadamard", "m": 2, "delta": null}',
        '{"p": 0, "q": 0, "barrier": "hadamard", "m": "x"}',
        '{"p": 0, "q": 0, "barrier": "hadamard", "m": null}',
        '{"p": 0, "q": 0, "barrier": "hadamard", "m": NaN}',
        '{"p": 0, "q": 0, "barrier": "hadamard", "m": 1e400}',
        '{"p": "0.5", "q": 0, "barrier": {"hwp": "0.3"}, "m": 3}',
        '{"p": true, "q": 0, "barrier": {"free": [false, "1"]}, "m": 3}',
        '{"p": 0, "q": 0, "barrier": "hadamard", "m": true}',
    ],
)
def test_malformed_config_value_is_model_error(tmp_path, capsys, text):
    cfg_file = tmp_path / "model.json"
    cfg_file.write_text(text)
    code, out, err = _run(capsys, "stationary", "--config", str(cfg_file))
    assert code == 2
    assert out == ""
    assert err.startswith("qrtw:")
    assert "Traceback" not in err


_HUGE_M = "1" + "0" * 400  # no float holds it


@pytest.mark.parametrize(
    "argv",
    [
        ("stationary", "--preset", "corollary3", "--p", "1e308"),
        ("stationary", "--barrier", "hadamard", "--m", "2", "--delta", "1e308"),
        ("evolve", "--barrier", "hadamard", "--m", "2", "--q", "1e307"),
        ("verify", "--barrier", "hadamard", "--m", "2", "--p", "1e307"),
        ("stationary", "--barrier", '{"hwp": 1e308}', "--m", "2"),
        ("stationary", "--barrier", '{"a": [1e308, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}', "--m", "2"),
        ("stationary", "--barrier", "hadamard", "--m", _HUGE_M),
        ("spectrum", "--alpha", "1", "--s", "1", "--m", _HUGE_M, "--k", "0.1:5:3"),
    ],
    ids=["p", "delta", "q", "verify", "hwp", "entry", "m", "chain-m"],
)
def test_model_numbers_too_large_for_the_phase_arithmetic_exit_2(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("qrtw: ") and err.count("\n") == 1
    assert "Traceback" not in err


_NAN_ENTRY = '{"a": [NaN, 0], "b": [0, 0], "c": [0, 0], "d": [1, 0]}'
_LONG_INT = "1" + "0" * 5000  # past Python's 4,300-digit limit for int()
_DEEP = "[" * 30000 + "]" * 30000  # past the recursion limit


@pytest.mark.parametrize(
    "argv, config, code, message",
    [
        (("stationary", "--preset", "corollary3", "--window", "1:x"), None, 1, "--window bounds must be integers"),
        (("spectrum", "--preset", "fig2", "--k", "1"), None, 1, "--k expects MIN:MAX or MIN:MAX:N"),
        (("spectrum", "--preset", "fig2", "--k", "a:5"), None, 1, "--k has a malformed component"),
        (("stationary", "--config", "MISSING"), None, 1, "cannot read config file"),
        (("stationary", "--config", "CONFIG"), "{bad", 1, "config file is not valid JSON"),
        ((), None, 1, "a command is required"),
        (("stationary", "--config", "CONFIG"), "[1, 2]", 2, "config must be a JSON object, got list"),
        (("stationary", "--config", "CONFIG"), '{"p": 0, "q": 0, "barrier": "hadamard"}', 2, "config is missing field 'm'"),
        (("stationary", "--barrier", _NAN_ENTRY), None, 2, "coin entries must be finite"),
        (("stationary", "--config", "CONFIG"), '{"p": 0, "q": 0, "barrier": "hadamard", "m": ' + _LONG_INT + "}",
         1, "config file is not valid JSON"),
        (("stationary", "--config", "CONFIG"), b"\xff\xfe{}", 1, "config file is not valid JSON"),
        (("stationary", "--barrier", '{"hwp": ' + _LONG_INT + "}", "--m", "2"), None, 1, "--barrier cannot be read"),
        (("stationary", "--config", "CONFIG"), _DEEP, 1, "config file is not valid JSON"),
        (("stationary", "--barrier", _DEEP, "--m", "2"), None, 1, "--barrier cannot be read"),
        (("resonances", "--preset", "fig2", "a\nb"), None, 1, "unrecognized arguments: a\\nb\n"),
    ],
    ids=["window-bound", "k-arity", "k-number", "config-missing", "config-json", "no-command",
         "config-list", "config-no-m", "nan-entry", "config-long-int", "config-not-utf8", "barrier-long-int",
         "config-deep", "barrier-deep", "echoed-newline"],
)
def test_each_input_error_exits_with_its_code(tmp_path, capsys, argv, config, code, message):
    if config is not None:
        (tmp_path / "model.json").write_bytes(config if isinstance(config, bytes) else config.encode())
    paths = {"CONFIG": str(tmp_path / "model.json"), "MISSING": str(tmp_path / "missing.json")}
    got, out, err = _run(capsys, *(paths.get(a, a) for a in argv))
    assert got == code
    assert out == ""
    assert err.startswith("qrtw: " + message) and err.count("\n") == 1


_LONG_TEXT = "x" * 100_000


@pytest.mark.parametrize(
    "argv, code",
    [
        (("spectrum", "--alpha", "1", "--s", "1", "--m", _HUGE_M, "--k", "0.1:5:3"), 2),
        (("spectrum", "--alpha", "1", "--s", "1", "--m", _LONG_INT, "--k", "0.1:5:3"), 1),
        (("stationary", "--preset", "corollary3", "--window=-" + _HUGE_M + ":5"), 2),
        (("spectrum", "--preset", "fig2", "--k", "0.1:5:" + _HUGE_M), 2),
        (("stationary", "--barrier", _LONG_TEXT), 2),
        (("stationary", "--preset", _LONG_TEXT), 1),
        (("stationary", "--preset", "corollary3", "--window", _LONG_TEXT), 1),
        (("spectrum", "--preset", "fig2", "--k", _LONG_TEXT), 1),
    ],
    ids=["phase-m", "argparse-int", "window-sites", "grid-points", "barrier", "preset", "window", "k"],
)
def test_error_line_is_bounded_whatever_the_argument(capsys, argv, code):
    got, out, err = _run(capsys, *argv)
    assert got == code
    assert out == ""
    assert err.startswith("qrtw: ") and err.endswith("\n") and err.count("\n") == 1
    assert len(err) - len("qrtw: \n") <= 300
    assert " characters cut ...] " in err


def test_import_loads_no_thread_pool():
    # the CLI's forked workers are plain os.fork processes: no executor, no logging
    src = str(Path(qrtw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, qrtw.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


_POOL_PROBE = """\
import os, time
time.sleep(0.3)
ticks = 0
for tid in os.listdir("/proc/self/task"):
    if tid != str(os.getpid()):
        with open(f"/proc/self/task/{tid}/stat") as fh:
            ticks += sum(map(int, fh.read().rsplit(")", 1)[1].split()[11:13]))  # utime, stime: fields 14, 15
print(os.environ.get("OPENBLAS_THREAD_TIMEOUT"), ticks)
"""


def _pool_probe(argv, stdin="", **preset):
    """Run ``python *argv`` without OPENBLAS_THREAD_TIMEOUT (unless
    ``preset`` gives it) and return the variable and the CPU ticks of
    every thread but the main one, as :data:`_POOL_PROBE` prints them."""
    src = str(Path(qrtw.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env.update(PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **preset)
    proc = subprocess.run(
        [sys.executable, *argv], input=stdin, capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    value, ticks = proc.stdout.split()
    return value, int(ticks)


_needs_thread_stats = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="reads per-thread CPU time from /proc/self/task"
)


@_needs_thread_stats
@pytest.mark.parametrize(
    "argv, stdin",
    [
        (["-c", "import qrtw\n" + _POOL_PROBE], ""),
        # -i reads the probe from stdin once the CLI has exited with its usage error
        (["-i", "-m", "qrtw.cli"], f"exec({_POOL_PROBE!r})\n"),
    ],
    ids=["import", "cli"],
)
def test_blas_pool_sleeps_instead_of_spinning(argv, stdin):
    # OpenBLAS's pool thread busy-waited about 0.1 s (some 13 ticks) after numpy loaded; qrtw calls no BLAS routine
    value, ticks = _pool_probe(argv, stdin)
    assert ticks <= 2
    assert value == "20"


@_needs_thread_stats
def test_preset_blas_thread_timeout_is_kept():
    assert _pool_probe(["-c", "import qrtw\n" + _POOL_PROBE], OPENBLAS_THREAD_TIMEOUT="25")[0] == "25"


@pytest.mark.parametrize("command", ["evolve", "verify"])
@pytest.mark.parametrize("tol", ["nan", "inf", "0"])
def test_tol_must_be_positive_and_finite(capsys, command, tol):
    code, out, err = _run(capsys, command, "--preset", "corollary3", "--tol", tol)
    assert code == 1
    assert out == ""
    assert err.startswith("qrtw:") and "--tol" in err


_SWAP = '{"a": [0, 0], "b": [1, 0], "c": [1, 0], "d": [0, 0]}'
_THIRD_PI = repr(math.pi / 3)


@pytest.mark.parametrize(
    "argv",
    [
        # the pinned commands
        ("stationary", "--preset", "corollary3", "--out", "{out}"),
        ("stationary", "--preset", "corollary3", "--delta", "0.4", "--window=-7:12", "--format", "json", "--out", "{out}"),
        ("evolve", "--preset", "corollary3", "--out", "{out}", "--dump-every", "100"),
        ("evolve", "--preset", "corollary3", "--delta", "0.4", "--format", "json", "--out", "{out}"),
        ("spectrum", "--preset", "fig2", "--format", "json", "--out", "{out}"),
        ("resonances", "--preset", "fig2", "--out", "{out}"),
        # full reflector: T = 0, and no resonance residual (null)
        ("stationary", "--p", _THIRD_PI, "--q", _THIRD_PI, "--barrier", _SWAP, "--m", "2", "--format", "json", "--out", "{out}"),
        # trivial barrier: residual null; evolve settles too cleanly to fit a rate (null)
        ("stationary", "--barrier", "identity", "--m", "2", "--format", "json", "--out", "{out}"),
        ("evolve", "--barrier", "identity", "--m", "2", "--format", "json", "--out", "{out}"),
        # alpha = 0: no roots, flagged all_resonant
        ("resonances", "--alpha", "0", "--s", "1", "--m", "3", "--k", "0.1:5"),
    ],
    ids=[
        "stationary", "stationary-driven", "evolve-snapshots", "evolve-driven", "spectrum-json",
        "resonances", "full-reflector", "trivial-barrier", "evolve-no-rate", "resonances-alpha0",
    ],
)
def test_json_output_is_strict(tmp_path, capsys, monkeypatch, argv):
    flags = []
    dumps = json.dumps

    def recording_dumps(obj, **kwargs):
        flags.append(kwargs.get("allow_nan", True))
        return dumps(obj, **kwargs)

    monkeypatch.setattr(json, "dumps", recording_dumps)
    code, _, err = _run(capsys, *(a.replace("{out}", str(tmp_path / "out")) for a in argv))
    assert code == 0, err
    assert flags and not any(flags)


def test_spectrum_file_is_written_block_by_block(tmp_path):
    # a CSV joined into one string before the write would alone reach the file size
    out_file = tmp_path / "spec.csv"
    tracemalloc.start()
    try:
        code = main(["spectrum", "--alpha", "2.5", "--s", "0.7", "--m", "5", "--k", "0.1:5:300000", "--out", str(out_file)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < out_file.stat().st_size


def test_spectrum_json_is_written_block_by_block(tmp_path):
    # the document built whole would alone reach the file size
    out_file = tmp_path / "spec.json"
    tracemalloc.start()
    try:
        code = main([*_SPEC_ARGS, "--k", "0.1:5:200000", "--format", "json", "--out", str(out_file)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < out_file.stat().st_size


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_profile_file_is_written_block_by_block(tmp_path, fmt):
    # a profile rendered whole (a str per row, or the document's lists of floats) peaks far above this
    out_file = tmp_path / f"st.{fmt}"
    amplitudes = 2 * 200_011 * np.dtype(complex).itemsize  # psi_l and psi_r
    tracemalloc.start()
    try:
        code = main(["stationary", "--preset", "corollary3", "--window=-10:200000", "--format", fmt, "--out", str(out_file)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * amplitudes


def test_closed_stdout_pipe_exits_1_quietly():
    src = str(Path(qrtw.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "qrtw.cli", "spectrum", "--alpha", "1", "--s", "1", "--m", "3", "--k", "0.1:5:200000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline() == b"k,T\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


_TWO_PROCESS = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")


@pytest.fixture
def forks(monkeypatch):
    """Report two usable CPUs and record the pid of every forked worker."""
    pids = []
    real_fork = os.fork

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", spy)
    return pids


def _assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


_SPEC_ARGS = ("spectrum", "--alpha", "2.5", "--s", "0.7", "--m", "5")


@_TWO_PROCESS
@pytest.mark.parametrize("n", [2, _BLOCK + 1, 3 * _BLOCK + 5])
def test_two_process_csv_equals_the_library_csv(tmp_path, capsys, forks, n):
    # two CPUs are usable, and the spectrum is still computed and written in this one process
    expected = "".join(spectrum_csv_blocks(spectrum_scan(2.5, 0.7, 5, 0.1, 5.0, n)))
    out_file = tmp_path / "spec.csv"
    code, out, err = _run(capsys, *_SPEC_ARGS, "--k", f"0.1:5:{n}", "--out", str(out_file))
    assert code == 0 and out == "" and err == ""
    assert out_file.read_text() == expected
    if n == _BLOCK + 1:
        assert _run(capsys, *_SPEC_ARGS, "--k", f"0.1:5:{n}") == (0, expected, "")
    assert forks == []


# One CPU, a fork that fails, no os.sched_getaffinity (one CPU is then
# assumed) and no os.fork each leave the serial path.
_WITHOUT_A_WORKER = pytest.mark.parametrize(
    "cpus, forks_tried, missing",
    [({0}, 0, None), ({0, 1}, 1, None), ({0, 1}, 0, "sched_getaffinity"), ({0, 1}, 0, "fork")],
    ids=["one-cpu", "failed-fork", "no-affinity", "no-fork"],
)


def _fork_attempts(monkeypatch, cpus, missing):
    """Report ``cpus`` usable CPUs, make every fork fail, delete the
    ``os`` attribute named ``missing``; return the list of forks tried."""
    calls = []

    def fork():
        calls.append(1)
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda _: cpus, raising=False)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    if missing is not None:
        monkeypatch.delattr(os, missing)
    return calls


def test_snapshot_worker_reads_whole_frames(tmp_path):
    # a frame is the raw psi_l then psi_r of a window; the k-th frame is step k * every's
    window = (-4, 9)
    models = (
        {"p": 0.3, "q": -0.2, "barrier": "hadamard", "m": 3},
        {"p": 1.1, "q": 0.7, "barrier": {"hwp": 0.6}, "m": 5},
    )
    profiles = [build_profile(solve_closed_form(cfg), cfg, window) for cfg in map(config_from_json, models)]
    frames = b"".join(p.psi_l.tobytes() + p.psi_r.tobytes() for p in profiles)
    for cut in (1, len(frames) // 2 - 1):
        with pytest.raises(UsageError, match=cli._STOPPED):
            cli._Snapshots(str(tmp_path / "run.csv"), "csv", 7)._serve(io.BytesIO(frames + frames[:cut]), window)
        assert sorted(os.listdir(tmp_path)) == ["run_n14.csv", "run_n7.csv"]
        for name, profile in zip(("run_n7.csv", "run_n14.csv"), profiles):
            assert (tmp_path / name).read_text() == "".join(cli._render_profile(profile, "csv"))
    empty = tmp_path / "empty"
    empty.mkdir()
    cli._Snapshots(str(empty / "run.csv"), "csv", 7)._serve(io.BytesIO(b""), window)
    assert list(empty.iterdir()) == []


def test_write_atomic_frees_each_piece_before_the_next(tmp_path):
    freed = []

    class Piece(str):
        def __del__(self):
            freed.append(self[0])

    def pieces():
        for i in range(3):
            assert freed == list("012"[:i])  # the piece written last is gone
            yield Piece(str(i) * 100_000)

    cli._write_atomic(str(tmp_path / "out.txt"), pieces())
    assert (tmp_path / "out.txt").read_text() == "0" * 100_000 + "1" * 100_000 + "2" * 100_000


@_TWO_PROCESS
def test_artifacts_get_the_umask_mode(tmp_path, capsys, forks):
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        directory = tmp_path / oct(umask)
        directory.mkdir()
        st, spec, run = (directory / name for name in ("st.csv", "spec.csv", "run.csv"))
        old = os.umask(umask)
        try:
            assert _run(capsys, "stationary", "--preset", "corollary3", "--out", str(st))[0] == 0
            assert _run(capsys, *_SPEC_ARGS, "--k", f"0.1:5:{2 * _BLOCK + 1}", "--out", str(spec))[0] == 0
            assert _run(capsys, "evolve", "--preset", "corollary3", "--out", str(run), "--dump-every", "100")[0] == 0
            assert len(forks) == 1
        finally:
            os.umask(old)
        forks.clear()
        for path in (st, spec, directory / "run_n100.csv"):
            assert path.stat().st_mode & 0o777 == mode, (oct(umask), path.name)


def _evolve_into(directory, capsys, *argv):
    """Run ``evolve`` on corollary3 with ``--out directory/run.csv``;
    return the exit code, stdout, stderr and the bytes of every entry
    left in the directory (``.part`` files included; None for a
    directory) by name."""
    directory.mkdir(exist_ok=True)
    code, out, err = _run(capsys, "evolve", "--preset", "corollary3", "--out", str(directory / "run.csv"), *argv)
    return code, out, err, {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


@_TWO_PROCESS
@pytest.mark.parametrize(
    "extra",
    # 2,201 sites make 70,432-byte frames, more than a 64 KiB pipe holds
    [(), ("--format", "json"), ("--delta", "0.4"), ("--window=-1100:1100", "--max-steps", "6000")],
    ids=["csv", "json", "driven", "frames-over-a-pipe"],
)
def test_snapshot_worker_writes_the_serial_bytes(tmp_path, capsys, monkeypatch, forks, extra):
    forked = _evolve_into(tmp_path / "forked", capsys, "--dump-every", "50", *extra)
    assert len(forks) == 1
    _assert_reaped(forks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0}, raising=False)
    serial = _evolve_into(tmp_path / "serial", capsys, "--dump-every", "50", *extra)
    assert len(forks) == 1
    code, out, err, files = forked
    assert code == 0 and err == ""
    assert len(files) == 1 + json.loads(out)["steps"] // 50
    assert forked == serial


@_WITHOUT_A_WORKER
def test_snapshots_without_a_worker(tmp_path, capsys, monkeypatch, cpus, forks_tried, missing):
    calls = _fork_attempts(monkeypatch, cpus, missing)
    code, _, err, files = _evolve_into(tmp_path, capsys, "--dump-every", "100")
    assert code == 0 and err == ""
    assert len(calls) == forks_tried
    assert sorted(files) == ["run.csv", "run_n100.csv", "run_n200.csv"]
    # the digests pinned in test_evolve_snapshot_bytes_are_pinned
    _assert_digest(files["run.csv"], "22c2cc022b5831e399f5bb99b8571712dce5e4c8acc3edeccf44745bb5c2a72e")
    _assert_digest(files["run_n100.csv"], "d08c1e69db7f7b307fbca76aeaeaf1bb0caaba84a79e3f40be254f5d9adea4dc")


# Snapshots of corollary3 are 3.3 KB: every 50 steps they all fit in the
# pipe, so a worker failure shows when it is closed; every step they
# fill it, so the failure shows mid-run as a broken pipe.
_EVERY = pytest.mark.parametrize("every", [50, 1], ids=["found-at-close", "found-mid-run"])


@_TWO_PROCESS
@_EVERY
def test_snapshot_worker_that_dies_fails_the_command_cleanly(tmp_path, capsys, monkeypatch, forks, every):
    parent = os.getpid()
    render = cli._render_profile

    def dies_in_worker(profile, fmt):
        if os.getpid() != parent:
            os._exit(1)
        return render(profile, fmt)

    monkeypatch.setattr(cli, "_render_profile", dies_in_worker)
    code, out, err, files = _evolve_into(tmp_path, capsys, "--dump-every", str(every))
    assert code == 1 and out == ""
    assert err.startswith("qrtw: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert files == {}
    assert len(forks) == 1
    _assert_reaped(forks)


@_TWO_PROCESS
@_EVERY
def test_failed_snapshot_write_reads_as_in_the_serial_path(tmp_path, capsys, monkeypatch, forks, every):
    (tmp_path / "run_n100.csv").mkdir()  # the rename onto it fails
    code, out, forked_err, files = _evolve_into(tmp_path, capsys, "--dump-every", str(every))
    assert code == 1 and out == ""
    assert sorted(files) == sorted(f"run_n{n}.csv" for n in range(every, 101, every))
    assert len(forks) == 1
    _assert_reaped(forks)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0}, raising=False)
    code, out, serial_err, _ = _evolve_into(tmp_path, capsys, "--dump-every", str(every))
    assert code == 1 and out == ""
    assert serial_err.startswith(f"qrtw: cannot write {tmp_path / 'run_n100.csv'}: ")
    assert forked_err == serial_err


@_TWO_PROCESS
def test_step_budget_with_snapshots_exits_4_after_every_snapshot(tmp_path, capsys, forks):
    code, out, err, files = _evolve_into(tmp_path, capsys, "--max-steps", "120", "--dump-every", "10")
    assert code == 4 and out == ""
    assert err.startswith("qrtw: no convergence after 120 steps") and err.count("\n") == 1
    assert sorted(files) == sorted(f"run_n{n}.csv" for n in range(10, 121, 10))
    assert len(forks) == 1
    _assert_reaped(forks)


@_TWO_PROCESS
def test_run_that_ends_before_its_first_snapshot_forks_nothing(tmp_path, capsys, forks):
    code, _, err, files = _evolve_into(tmp_path, capsys, "--dump-every", "100000")
    assert code == 0 and err == ""
    assert list(files) == ["run.csv"]
    assert forks == []


@pytest.mark.parametrize(
    "argv",
    [
        ("stationary", "--preset", "corollary3"),
        ("evolve", "--preset", "corollary3", "--dump-every", "50"),
        ("spectrum", "--preset", "fig2"),
        ("resonances", "--preset", "fig2"),
    ],
    ids=["stationary", "evolve", "spectrum", "resonances"],
)
@pytest.mark.parametrize("target", ["d", "d" + os.sep, "missing" + os.sep])
def test_out_naming_a_directory_is_usage_error(tmp_path, capsys, argv, target):
    (tmp_path / "d").mkdir()
    code, out, err = _run(capsys, *argv, "--out", str(tmp_path) + os.sep + target)
    assert code == 1 and out == ""
    assert err.startswith("qrtw: --out must name a file") and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["d"]
    assert list((tmp_path / "d").iterdir()) == []


def test_star_import_provides_every_export():
    ns = {}
    exec("from qrtw import *", ns)
    assert [name for name in qrtw.__all__ if name not in ns] == []


_PUBLIC = [
    "AmplitudeProfile", "BetaDecomposition", "Coin", "ConvergenceReport", "DegenerateResonance",
    "DivergentSeries", "EdgeOutOfWindow", "EdgeWave", "EvolutionState", "FullReflector", "GraphParams",
    "Injection", "InvalidWaveNumber", "MarginViolation", "ModelError", "NoConvergence", "NotUnitary",
    "NumericalDegeneracy", "QrtwError", "ResonanceSet", "SeriesResult", "SingularSystem", "Spectrum",
    "StationarySolution", "TrivialBarrier", "TunnelingConfig", "UsageError",
    "WindowTooSmall", "beta_decompose", "build_profile", "coin_from_json", "config_from_json",
    "determinant", "edge_wave", "find_resonances", "flux_balance", "free_coin", "hadamard",
    "half_wave_plate", "identity_coin", "init_lattice", "make_coin", "norm_check", "profile_from_csv",
    "profile_max_difference", "profile_to_csv", "resonance_residual", "run_to_convergence",
    "solve_closed_form", "solve_general", "spectrum_csv_blocks", "spectrum_scan", "step",
    "t_magnitude_via_beta", "t_series", "t_series_limit", "to_tunneling_config", "transmission_at_k",
    "transmitted_tail_phase", "unitarity_residual", "vertex_coin",
]


def test_package_surface_is_each_module_surface():
    ns = {}
    exec("from qrtw import *", ns)
    assert sorted(set(ns) - {"__builtins__"}) == sorted(qrtw.__all__)
    assert len(set(qrtw.__all__)) == len(qrtw.__all__)
    assert sorted(qrtw.__all__) == _PUBLIC
    for module in (qrtw.artifacts, qrtw.coin, qrtw.errors, qrtw.evolution, qrtw.qgraph, qrtw.scattering, qrtw.series):
        for name in module.__all__:
            assert getattr(module, name).__module__ == module.__name__, name
