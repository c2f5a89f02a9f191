"""Structured reports and run manifests with deterministic bodies.

Report bodies are reproducible across runs: keys are sorted, counterexample
lists come in scan order, and the wall-clock fields (elapsed_ms here, the
manifest timestamp) are the only parts excluded from the determinism digest.

One encoder writes every report: ``write_json(obj, write)`` hands the text
of obj to ``write`` in chunks of about ``CHUNK_PIECES`` pieces, so a report
streams into its file (or a digest) without its whole text ever being held;
``canonical_json`` joins the same chunks into one string.  It encodes
exactly the types reports hold: dicts with ``str`` keys (emitted in sorted
order), lists and tuples, row tables (each encoded as the list of its
decoded dicts), ``str``, ``int``, ``True``, ``False`` and ``None``; any
other value, a float or a set for one, or a non-``str`` key raises
``TypeError``, after the chunks before it were written.  The text is
byte-identical to ``json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=False)`` plus a newline, but built in one recursive pass that
appends one joined string per dict or list item, since ``json.dumps`` with
an indent runs its pure-Python encoder.  The chunked form follows
``json.JSONEncoder.iterencode``: the joined chunks are the text.

A row table (``RowTable``: a scan's findings, a polynomial's terms) is a
read-only sequence of dicts with the keys ``KEYS``, held as rows of fields
and decoded only when read: iteration and indexing yield fresh dicts,
``[:k]`` decodes k rows, and ``==`` against a list compares the decoded
dicts.  A subclass holds the storage: ``__len__``; ``rows()``, which yields
each row's fields in KEYS order; ``_row(index)``, the fields of one row;
``_decode(fields)``, a row's dict, by default the fields zipped with KEYS;
and ``field_text(field, newline)``, a field's JSON text nested at newline,
by default the encoder's text of the field itself.  The encoder writes a
table without building its dicts: its keys are sorted once into one row
template, and each field's text is built once per distinct field, so a
field must be hashable, with equal fields having the same text.  A
polynomial's x or T field is the one part object that every term with that
part shares: it hashes by identity, so an x-part is written once however
many terms share it.
"""

from __future__ import annotations

import hashlib
from abc import abstractmethod
from collections.abc import Callable, Iterator, Sequence
from datetime import datetime, timezone
from itertools import islice, repeat
from json.encoder import encode_basestring

VOLATILE_FIELDS = ("elapsed_ms", "timestamp")
# pieces the encoder holds before it hands them, joined, to write
CHUNK_PIECES = 8192


def _scalar(obj) -> str | None:
    """The JSON text of a scalar, None for a dict, list, tuple or row table."""
    if isinstance(obj, str):
        return encode_basestring(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (dict, list, tuple, RowTable)):
        return None
    raise TypeError(f"report JSON cannot encode {type(obj).__name__}")


def _value_text(value, newline: str) -> str:
    """The JSON text of a scalar, dict, list or tuple value nested at newline."""
    text = _scalar(value)
    if text is None:
        pieces: list[str] = []
        _encode(value, pieces, newline, lambda: None)
        text = "".join(pieces)
    return text


class RowTable(Sequence):
    """A read-only sequence of dicts held as rows of fields; see the module
    docstring for the protocol."""

    KEYS: tuple[str, ...] = ()
    __slots__ = ()
    __hash__ = None

    @abstractmethod
    def rows(self) -> Iterator[tuple]:
        """Each row's fields, in KEYS order."""

    @abstractmethod
    def _row(self, index: int) -> tuple:
        """The fields of row index, 0 <= index < len(self)."""

    def _decode(self, fields: tuple) -> dict:
        return dict(zip(self.KEYS, fields))

    field_text = staticmethod(_value_text)

    def __iter__(self) -> Iterator[dict]:
        return map(self._decode, self.rows())

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(len(self))
            if step < 0:
                return [self[i] for i in range(start, stop, step)]
            return list(map(self._decode, islice(self.rows(), start, stop, step)))
        size = len(self)
        if not -size <= index < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return self._decode(self._row(index % size))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (RowTable, list)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __repr__(self) -> str:
        return f"<{type(self).__name__}: {len(self)} rows>"


def _encode(obj, out: list[str], newline: str, flush: Callable[[], None]) -> None:
    """Append the text of the dict, list or tuple obj, nested at newline,
    calling flush after any item that leaves CHUNK_PIECES pieces in out."""
    is_dict = isinstance(obj, dict)
    if not obj:
        out.append("{}" if is_dict else "[]")
        return
    # encode_basestring raises TypeError on a key that is not a str
    items = ([(encode_basestring(key) + ": ", obj[key]) for key in sorted(obj)] if is_dict
             else zip(repeat(""), obj))
    inner = newline + "  "
    sep = ("{" if is_dict else "[") + inner
    for label, value in items:
        cls = type(value)
        if cls is str:
            out.append(sep + label + encode_basestring(value))
        elif cls is int:
            out.append(sep + label + repr(value))
        elif cls is dict or cls is list:
            out.append(sep + label)
            _encode(value, out, inner, flush)
        elif (text := _scalar(value)) is None:
            out.append(sep + label)
            (_encode_rows if isinstance(value, RowTable) else _encode)(value, out, inner, flush)
        else:
            out.append(sep + label + text)
        sep = "," + inner
        if len(out) >= CHUNK_PIECES:
            flush()
    out.append(newline + ("}" if is_dict else "]"))


def _encode_rows(rows: RowTable, out: list[str], newline: str,
                 flush: Callable[[], None]) -> None:
    """Append the text of the row table rows nested at newline: one string
    per row, from a template of the sorted keys and one text memo per field,
    calling flush as the rows pass about CHUNK_PIECES pieces' worth of
    characters."""
    if not rows:
        out.append("[]")
        return
    inner = newline + "  "
    field_newline = inner + "  "
    order = sorted(range(len(rows.KEYS)), key=rows.KEYS.__getitem__)
    template = ("{" + ",".join(field_newline + encode_basestring(rows.KEYS[i]).replace("%", "%%")
                               + ": %s" for i in order) + inner + "}")
    fields: list[tuple[int, dict]] = [(i, {}) for i in order]  # (index, text memo)
    field_text = rows.field_text

    # A row's dict would make one piece per line, of about 16 characters: the
    # rows flush once they hold the characters of CHUNK_PIECES such pieces.
    budget, held = 16 * CHUNK_PIECES, 0
    sep = "[" + inner
    for values in rows.rows():
        texts = []
        for i, memo in fields:
            value = values[i]
            text = memo.get(value)
            if text is None:
                text = memo[value] = field_text(value, field_newline)
            texts.append(text)
        row = sep + template % tuple(texts)
        out.append(row)
        sep = "," + inner
        held += len(row)
        if held >= budget:
            flush()
            held = 0
    out.append(newline + "]")


def write_json(obj, write: Callable[[str], object]) -> None:
    """Hand the report text of obj to write, in chunks; see the module
    docstring for its contract."""
    text = _scalar(obj)
    if text is not None:
        write(text + "\n")
        return
    out: list[str] = []

    def flush() -> None:
        write("".join(out))
        out.clear()

    (_encode_rows if isinstance(obj, RowTable) else _encode)(obj, out, "\n", flush)
    out.append("\n")
    flush()


def canonical_json(obj) -> str:
    """The report text of obj, the chunks of write_json joined."""
    chunks: list[str] = []
    write_json(obj, chunks.append)
    return "".join(chunks)


def body_digest(obj: dict) -> str:
    """sha256 of the canonical body with wall-clock fields removed."""
    body = {k: v for k, v in obj.items() if k not in VOLATILE_FIELDS}
    digest = hashlib.sha256()
    write_json(body, lambda chunk: digest.update(chunk.encode()))
    return digest.hexdigest()


def outcome_report(outcome, params: dict, elapsed_ms: int) -> dict:
    """The report body of a scan's ``permutation.ScanOutcome``."""
    return {
        "scan": outcome.name,
        "n": outcome.n,
        "params": params,
        "counterexamples": outcome.counterexamples,
        "stats": outcome.stats,
        "elapsed_ms": elapsed_ms,
    }


def hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def make_manifest(
    command: str,
    params: dict,
    version: str,
    input_hashes: dict,
    result_summary: dict,
    exit_status: int,
) -> dict:
    return {
        "command": command,
        "params": params,
        "version": version,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "input_hashes": input_hashes,
        "result_summary": result_summary,
        "exit_status": exit_status,
    }
