"""Library runner for the ``general-sweep`` workload.

Run as ``python perfbench/sweep.py CASES.json`` with ``src`` on
``PYTHONPATH``.  It solves every case with ``solve_general`` (the
"linear system" route) and, for each identical pair under left
injection, also runs the closed form, ``build_profile`` and the bounce
series limit.  It prints one JSON list with the raw numbers; the
benchmark checks them outside the timed process.

The traced run imports this module and replaces the four library names
below in its namespace with span-recording wrappers, so they are looked
up at call time on purpose.
"""

from __future__ import annotations

import json
import sys

from qrtw import (
    Injection,
    QrtwError,
    TunnelingConfig,
    build_profile,
    make_coin,
    profile_max_difference,
    solve_closed_form,
    solve_general,
    t_series_limit,
    transmitted_tail_phase,
)


def _coin(entries):
    a, b, c, d = (complex(entries[i], entries[i + 1]) for i in range(0, 8, 2))
    return make_coin(a, b, c, d)


def run_case(case: dict) -> dict:
    """Solve one case; errors are reported, not raised."""
    coins = {pos: _coin(entries) for pos, entries in case["coins"]}
    injection = Injection(case["injection"])
    out = {"hull": case["hull"], "defects": case["defects"], "injection": case["injection"]}
    try:
        lin, lin_prof = solve_general(coins, 0.0, injection, case["p"], case["q"])
    except QrtwError as exc:  # counted as a failed solve by the gate
        out["error"] = f"{type(exc).__name__}: {exc}"
        return out
    out.update(R=lin.R, T=lin.T, t=[lin.t.real, lin.t.imag])
    if case["defects"] == "2" and injection is Injection.LEFT:
        lo, hi = min(coins), max(coins)
        cfg = TunnelingConfig(p=case["p"], q=case["q"], barrier=coins[lo], m=hi - lo)
        closed = solve_closed_form(cfg)
        closed_prof = build_profile(closed, cfg, lin_prof.window)
        t_series = t_series_limit(cfg) * transmitted_tail_phase(cfg).conjugate()
        out["pair"] = {
            "t closed vs linear": abs(closed.t - lin.t),
            "profile closed vs linear": profile_max_difference(closed_prof, lin_prof),
            "t closed vs series limit": abs(t_series - closed.t),
        }
    return out


def run_cases(cases: list[dict]) -> list[dict]:
    return [run_case(case) for case in cases]


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        cases = json.load(fh)
    json.dump(run_cases(cases), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
