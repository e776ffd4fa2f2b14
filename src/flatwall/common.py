"""Shared result types and errors."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(frozen=True)
class Verdict:
    """Outcome of a validator: ok, or the first violated condition plus a witness."""

    ok: bool
    condition: Optional[str] = None
    witness: Any = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    @staticmethod
    def accept() -> "Verdict":
        return Verdict(True)

    @staticmethod
    def reject(condition: str, witness: Any = None, detail: str = "") -> "Verdict":
        return Verdict(False, condition, witness, detail)


class SizeCapExceeded(ValueError):
    """Input is larger than the configured exhaustive-search cap."""
