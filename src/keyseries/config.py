"""Runtime caps for the batch commands.

An optional config file (plain key=value lines, # comments) sets the sweep
caps `max_n` and `max_tdeg` and `max_terms`, the most terms a numerator
computed by `pw` may reach, in its induction's products or as its value; any
other key, or a key set twice, is an error.
Requests beyond the caps are refused rather than attempted: factorial sweeps
and exact series arithmetic grow too fast for a polite failure later.  The
package's two error types live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

ABSOLUTE_MAX_N = 9

_KEYS = ("max_n", "max_tdeg", "max_terms")


class ResourceCapError(Exception):
    """A request exceeded a configured or absolute resource cap."""


class InvariantError(Exception):
    """A structural invariant of the computation failed: a bug, not bad input.

    Raised by explicit checks, never by ``assert``, so it holds under ``-O``.
    """


@dataclass(frozen=True)
class EngineConfig:
    max_n: int = 7
    max_tdeg: int = 8
    max_terms: int = 1_000_000

    def check_rank(self, n: int) -> None:
        if n > ABSOLUTE_MAX_N:
            raise ResourceCapError(
                f"rank {n} exceeds the absolute cap {ABSOLUTE_MAX_N}"
            )
        if n > self.max_n:
            raise ResourceCapError(
                f"rank {n} exceeds the configured max_n {self.max_n}"
            )

    def check_tdeg(self, d: int) -> None:
        if d > self.max_tdeg:
            raise ResourceCapError(
                f"T-degree {d} exceeds the configured max_tdeg {self.max_tdeg}"
            )


def parse_config(text: str) -> EngineConfig:
    values: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {lineno}: {key} is set twice")
        try:
            num = int(val.strip())
        except ValueError:
            raise ValueError(
                f"config line {lineno}: {key} needs an integer, got {val.strip()!r}"
            ) from None
        if num <= 0:
            raise ValueError(f"config line {lineno}: {key} must be positive")
        values[key] = num
    return EngineConfig(**values)


def load_config(path: str | None = None) -> EngineConfig:
    if path is None:
        return EngineConfig()
    with open(path, encoding="utf-8") as fh:
        return parse_config(fh.read())
