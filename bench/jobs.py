"""A job: one user-level answer, timed as a whole and checked afterwards."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional


@dataclass
class Job:
    """``run(pass_index)`` is timed; ``check(pass_index, output)`` is not.

    ``known_failure`` accepts the exception a job is known to raise today
    because of a fault in bracelab; that outcome counts as failed but not
    as incorrect.  Any other exception is incorrect.
    """

    name: str
    run: Callable[[int], Any]
    check: Callable[[int, Any], list[str]]
    known_failure: Optional[Callable[[Exception], bool]] = None

    def verify(self, pass_index: int, outcome: Any) -> list[str]:
        if isinstance(outcome, Exception):
            if self.known_failure is not None and self.known_failure(outcome):
                return []
            return [f"{self.name}: raised {outcome!r}"]
        return [f"{self.name}: {e}" for e in self.check(pass_index, outcome)]
