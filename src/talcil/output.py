"""Deterministic, atomic result emission.

Every file is written to a temp name in the target directory and then
renamed into place, so readers never observe a half-written file; a
failure while writing removes the temp file and leaves the target as it
was.  CSV cells are formatted with repr (shortest round-trip) and records
carry no timestamps: identical inputs give byte-identical outputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError

__all__ = [
    "fmt_cell",
    "atomic_write_text",
    "write_csv",
    "write_jsonl",
    "spec_digest",
    "write_manifest",
]


def fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


# Rows formatted and written per chunk: bounds the strings held at once,
# about 1,024 rows x columns of them (a 54,000-row table takes 53 chunks).
_CSV_CHUNK_ROWS = 1024


@contextmanager
def _atomic_open(path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "w") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(text)


def _column_speller(col):
    """A function from a slice of rows to that chunk of ``col``'s cells as
    strings, by the ``fmt_cell`` rules.

    float16/32/64 and integer arrays take one ``tolist`` pass per chunk
    (``repr`` of a double and ``str`` of an int are what ``fmt_cell`` gives
    their elements); every other column goes cell by cell.  An integer
    array whose span ``max - min + 1`` is at most its length is spelled
    once per value, here, and each chunk looks its cells up by offset from
    the minimum (a step column repeats across chunks, not within one); the
    offsets, taken in int64 or uint64, are below the length, so none wraps.
    """
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f" and col.dtype.itemsize <= 8:
            return lambda rows: map(repr, col[rows].tolist())
        if col.dtype.kind in "iu":
            lo, hi = (int(col.min()), int(col.max())) if len(col) else (0, 0)
            if hi - lo < len(col):
                table = np.array([str(v) for v in range(lo, hi + 1)], dtype=object)
                base = (np.uint64 if col.dtype.kind == "u" else np.int64)(lo)
                return lambda rows: table[col[rows].astype(base.dtype, copy=False) - base].tolist()
            return lambda rows: map(str, col[rows].tolist())
    return lambda rows: map(fmt_cell, col[rows])


def write_csv(path, header, columns) -> None:
    """Write one CSV from one sequence per column (ndarray or list).

    Every column must be one-dimensional, and all must have the header's
    count and one length; a mismatch raises ``DomainError`` before
    anything is written.
    """
    header = tuple(header)
    columns = tuple(columns)
    if len(columns) != len(header):
        raise DomainError(f"{len(columns)} columns for a {len(header)}-name header")
    if any(isinstance(col, np.ndarray) and col.ndim != 1 for col in columns):
        raise DomainError("CSV columns must be one-dimensional")
    lengths = {len(col) for col in columns}
    if len(lengths) > 1:
        raise DomainError(f"CSV columns of unequal lengths {sorted(lengths)}")
    n_rows = lengths.pop() if lengths else 0
    spellers = [_column_speller(col) for col in columns]
    with _atomic_open(path) as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            cells = [spell(rows) for spell in spellers]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


_NON_FINITE = frozenset(map(repr, (np.nan, np.inf, -np.inf)))


def write_jsonl(path, columns) -> None:
    """One line per row of ``columns``, ``{key: 1-d column}`` (ndarray or
    list), spelled as ``json.dumps(row, sort_keys=True)``.

    The columns are a run's events: string keys over columns of one
    length of ints and finite floats (an array's ``tolist``), whose
    ``repr`` is their JSON, so one template formats every line.  Any
    other table is a ``DomainError``, raised before anything is written.
    """
    if any(type(key) is not str for key in columns):
        raise DomainError("JSONL keys must be strings")
    keys = sorted(columns)
    cells = []
    for key in keys:
        column = columns[key]  # a 2-d array's rows are lists, refused below
        column = column.tolist() if isinstance(column, np.ndarray) else list(column)
        spelled = list(map(repr, column))
        if not set(map(type, column)) <= {int, float} or not _NON_FINITE.isdisjoint(spelled):
            raise DomainError(f"JSONL field {key!r} must hold ints and finite floats")
        cells.append(spelled)
    if len({len(column) for column in cells}) > 1:
        raise DomainError("JSONL columns must have one length")
    template = "{" + ", ".join(json.dumps(k).replace("%", "%%") + ": %s" for k in keys) + "}\n"
    atomic_write_text(path, "".join(map(template.__mod__, zip(*cells))))


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_digest(spec_dict: dict) -> str:
    return hashlib.sha256(_canonical_json(spec_dict).encode()).hexdigest()


def write_manifest(directory, spec_dict: dict, seeds) -> None:
    """Reproducibility record: the fully resolved spec (defaults included),
    its hash, the seed list and the library version."""
    manifest = {
        "spec": spec_dict,
        "spec_sha256": spec_digest(spec_dict),
        "seeds": list(seeds),
        "version": __version__,
    }
    atomic_write_text(
        Path(directory) / "manifest.json",
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
