"""Structured reports and run manifests with deterministic bodies.

Report bodies are reproducible across runs: keys are sorted, counterexample
lists come in scan order, and the wall-clock fields (elapsed_ms here, the
manifest timestamp) are the only parts excluded from the determinism digest.

One encoder writes every report: ``write_json(obj, write)`` hands the text
of obj to ``write`` in chunks of about ``CHUNK_PIECES`` pieces, so a report
streams into its file (or a digest) without its whole text ever being held;
``canonical_json`` joins the same chunks into one string.  It encodes
exactly the types reports hold: dicts with ``str`` keys (emitted in sorted
order), lists and tuples, the row tables ``permutation.Findings`` and
``poly.Terms`` (each encoded as the list of its decoded dicts), ``str``,
``int``, ``True``, ``False`` and ``None``; any other value, a float or a set
for one, or a non-``str`` key raises ``TypeError``, after the chunks before
it were written.  The text is byte-identical to ``json.dumps(obj,
sort_keys=True, indent=2, ensure_ascii=False)`` plus a newline, but built in
one recursive pass that appends one joined string per dict or list item,
since ``json.dumps`` with an indent runs its pure-Python encoder.  A row
table is encoded through one row template, without building its dicts: its
keys are sorted once, each field's text is memoised per distinct value (an
x-part of a polynomial's terms is rendered once, however many terms share
it), and each row is appended as one string.  The chunked form follows the
contract of ``json.JSONEncoder.iterencode``: the joined chunks are the text.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from datetime import datetime, timezone
from itertools import repeat
from json.encoder import encode_basestring

from .permutation import Findings, ScanOutcome
from .poly import Terms

VOLATILE_FIELDS = ("elapsed_ms", "timestamp")
# pieces the encoder holds before it hands them, joined, to write
CHUNK_PIECES = 8192
# the row tables, which the encoder writes through _encode_rows
_ROW_TABLES = (Findings, Terms)


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
    if isinstance(obj, (dict, list, tuple, Findings, Terms)):
        return None
    raise TypeError(f"report JSON cannot encode {type(obj).__name__}")


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
            (_encode_rows if cls in _ROW_TABLES else _encode)(value, out, inner, flush)
        else:
            out.append(sep + label + text)
        sep = "," + inner
        if len(out) >= CHUNK_PIECES:
            flush()
    out.append(newline + ("}" if is_dict else "]"))


def _encode_rows(rows: Findings | Terms, out: list[str], newline: str,
                 flush: Callable[[], None]) -> None:
    """Append the text of the row table rows, the list of its decoded dicts,
    nested at newline: one string per row, from a template of the sorted keys
    and one text memo per field, calling flush as the rows pass about
    CHUNK_PIECES pieces' worth of characters.

    A row table has ``KEYS``; ``rows()``, which yields each row's fields in
    KEYS order; and ``value(field)``, a field's JSON value.  Fields are the
    memo keys: they are hashable, and fields that compare equal have the same
    value, whose text is built once per encode.  A ``Findings`` field is its
    own value.  A ``Terms`` x or T field is the one ``_Part`` that every term
    with that part shares; it hashes by identity, and its value is the
    part's exponent dict."""
    if not rows:
        out.append("[]")
        return
    inner = newline + "  "
    field_newline = inner + "  "
    order = sorted(range(len(rows.KEYS)), key=rows.KEYS.__getitem__)
    template = ("{" + ",".join(field_newline + encode_basestring(rows.KEYS[i]).replace("%", "%%")
                               + ": %s" for i in order) + inner + "}")
    fields: list[tuple[int, dict]] = [(i, {}) for i in order]  # (index, text memo)
    to_json = rows.value

    def field_text(field) -> str:
        value = to_json(field)
        text = _scalar(value)
        if text is None:
            pieces: list[str] = []
            _encode(value, pieces, field_newline, lambda: None)
            text = "".join(pieces)
        return text

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
                text = memo[value] = field_text(value)
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

    (_encode_rows if type(obj) in _ROW_TABLES else _encode)(obj, out, "\n", flush)
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


def outcome_report(outcome: ScanOutcome, params: dict, elapsed_ms: int) -> dict:
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
