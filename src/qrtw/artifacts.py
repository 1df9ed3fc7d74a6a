"""Text of every artifact: amplitude profiles and T(k) spectra, as CSV
and as JSON.

Every writer is a generator of text pieces: a header, then the rows,
computed one block of :data:`_BLOCK` sites or grid points at a time
from the block's start and rendered a piece at a time, so a caller
that writes each piece as it comes (``writelines``) holds one block of
the data and one piece of the text, never the whole of either.
``"".join(...)`` gives the whole text.  CSV floats come from
:mod:`qrtw._shortest` in ``repr``'s bytes, so the text parses back bit
for bit; JSON floats come from the ``json`` encoder, laid out as
``json.dumps(document, indent=2, allow_nan=False)`` lays out the whole
document.
"""

from __future__ import annotations

import json
import math
from itertools import repeat

import numpy as np

from .errors import ModelError
from .scattering import AmplitudeProfile

__all__ = ["profile_from_csv", "profile_to_csv", "spectrum_csv_blocks"]

_BLOCK = 1 << 14
"""Rows per text block of every streamed artifact (profile and spectrum,
CSV and JSON), and grid points per block of the T(k) kernel."""

_CSV_HEADER = "x,psiL_re,psiL_im,psiR_re,psiR_im,mu"


def _py_square(a: np.ndarray) -> np.ndarray:
    """``v ** 2`` of each value as Python computes it, by libm's ``pow``;
    numpy squares by ``v * v``, which differs on some values.  With
    ``np.hypot`` for ``abs``, the CSV ``mu`` column keeps the bytes of
    ``abs(l) ** 2 + abs(r) ** 2`` per row."""
    return np.fromiter(map(math.pow, memoryview(a), repeat(2.0)), np.float64, len(a))


def profile_to_csv(profile: AmplitudeProfile):
    """Yield a profile's CSV: the header line
    ``x,psiL_re,psiL_im,psiR_re,psiR_im,mu``, then the rows, a few
    hundred at a time.  Floats are written as ``repr`` writes them (see
    :func:`qrtw._shortest.csv_rows`), and ``mu`` is
    ``abs(l) ** 2 + abs(r) ** 2`` as Python computes it per row.
    """
    from ._shortest import csv_rows  # loaded on first use: import qrtw stays lean

    yield _CSV_HEADER + "\n"
    for i in range(0, len(profile.psi_l), _BLOCK):
        psi_l, psi_r = profile.psi_l[i : i + _BLOCK], profile.psi_r[i : i + _BLOCK]
        mu = _py_square(np.hypot(psi_l.real, psi_l.imag)) + _py_square(np.hypot(psi_r.real, psi_r.imag))
        x = np.arange(profile.x_min + i, profile.x_min + i + len(psi_l))
        yield from csv_rows([psi_l.real, psi_l.imag, psi_r.real, psi_r.imag, mu], index=x)


def profile_from_csv(text: str) -> AmplitudeProfile:
    """Parse :func:`profile_to_csv` output back into a profile.

    The ``mu`` column is redundant and ignored.  Positions must be
    consecutive integers in ascending order.
    """
    if not isinstance(text, str):
        raise ModelError(f"profile CSV must be text, got {type(text).__name__}")
    rows = [line for line in text.strip().splitlines() if line]
    if not rows or rows[0].strip() != _CSV_HEADER:
        raise ModelError(f"profile CSV must start with header {_CSV_HEADER!r}")
    xs: list[int] = []
    psi_l: list[complex] = []
    psi_r: list[complex] = []
    for line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 6:
            raise ModelError(f"profile CSV row has {len(parts)} fields: {line!r}")
        try:
            xs.append(int(parts[0]))
            psi_l.append(complex(float(parts[1]), float(parts[2])))
            psi_r.append(complex(float(parts[3]), float(parts[4])))
        except ValueError:
            raise ModelError(f"profile CSV row has a malformed number: {line!r}") from None
    if not xs:
        raise ModelError("profile CSV has no data rows")
    for prev, cur in zip(xs, xs[1:]):
        if cur != prev + 1:
            raise ModelError("profile CSV positions must be consecutive ascending")
    return AmplitudeProfile(x_min=xs[0], x_max=xs[-1], psi_l=psi_l, psi_r=psi_r)


def spectrum_csv_blocks(spectrum):
    """Yield a :class:`qrtw.qgraph.Spectrum`'s ``k,T`` CSV: the header
    line, then the rows in the pieces :func:`qrtw._shortest.csv_rows`
    yields, each block of :data:`_BLOCK` grid points evaluated
    (:meth:`qrtw.qgraph.Spectrum.block`) as it is rendered."""
    from ._shortest import csv_rows  # loaded on first use: import qrtw stays lean

    yield "k,T\n"
    for start in range(0, len(spectrum), _BLOCK):
        yield from csv_rows(spectrum.block(start, min(start + _BLOCK, len(spectrum))))


def _json_document(head: dict, n: int, columns: dict):
    """Yield a JSON document: the ``head`` entries, then each named
    column of ``n`` values.  A column is a function of a block's start
    and stop that gives the block's values, which the C encoder formats
    one block at a time, so neither a column's list of numbers nor the whole
    text is held.  A complex column is written as ``[re, im]`` pairs."""
    yield json.dumps(head, indent=2, allow_nan=False)[:-2]
    for name, column in columns.items():
        yield f',\n  "{name}": [\n    '
        for start in range(0, n, _BLOCK):
            chunk = column(start, min(start + _BLOCK, n))
            if np.iscomplexobj(chunk):
                # The encoder writes [[a,\n b],\n [c, ...]]; indent=2 puts each bracket on its own line.
                pairs = np.stack((chunk.real, chunk.imag), axis=1).tolist()
                text = json.dumps(pairs, separators=(",\n      ", ": "), allow_nan=False)
                text = "[\n      " + text[2:-2].replace("],\n      [", "\n    ],\n    [\n      ") + "\n    ]"
            else:
                text = json.dumps(chunk.tolist(), separators=(",\n    ", ": "), allow_nan=False)[1:-1]
            yield (",\n    " if start else "") + text
        yield "\n  ]"
    yield "\n}\n"


def profile_json(profile: AmplitudeProfile):
    """Yield a profile's JSON document: ``x_min``, ``x_max``, then
    ``psi_l`` and ``psi_r`` as ``[re, im]`` pairs and
    ``mu = np.abs(psi_l) ** 2 + np.abs(psi_r) ** 2``."""
    pl, pr = profile.psi_l, profile.psi_r
    columns = {
        "psi_l": lambda start, stop: pl[start:stop],
        "psi_r": lambda start, stop: pr[start:stop],
        "mu": lambda start, stop: np.abs(pl[start:stop]) ** 2 + np.abs(pr[start:stop]) ** 2,
    }
    return _json_document({"x_min": profile.x_min, "x_max": profile.x_max}, len(pl), columns)


def spectrum_json(spectrum, head: dict):
    """Yield a :class:`qrtw.qgraph.Spectrum`'s JSON document: the
    ``head`` entries, then the ``k`` and ``T`` arrays, each block
    evaluated as it is written."""
    columns = {"k": spectrum.k_block, "T": lambda start, stop: spectrum.block(start, stop)[1]}
    return _json_document(head, len(spectrum), columns)
