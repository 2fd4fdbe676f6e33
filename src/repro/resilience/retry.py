"""The one bounded-retry schedule shared by every retry loop in the library."""

from __future__ import annotations

from typing import Callable


def retry_after(
    attempt: int, retries: int, backoff_s: float, sleep: Callable[[float], None]
) -> bool:
    """May failed attempt number ``attempt`` (1-based) be retried?

    True while ``attempt <= retries``. Before answering True it waits
    ``backoff_s``, doubled for each earlier failed attempt, through
    ``sleep`` (no call at all when ``backoff_s`` is 0), so an injected
    clock or sleeper records the exact schedule.
    """
    if attempt > retries:
        return False
    if backoff_s > 0:
        sleep(backoff_s * 2 ** (attempt - 1))
    return True
