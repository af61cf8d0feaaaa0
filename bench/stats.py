"""Summary statistics and output digests shared by run.py, pin.py and the
benchmark's tests.  Standard library only."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Iterable, Optional, Sequence, Tuple

# a percentile is reported only when at least this many samples lie beyond it
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The nearest-rank q-quantile of values and the number of samples
    strictly beyond its rank."""
    if not values:
        raise ValueError("no samples")
    if not 0 < q <= 1:
        raise ValueError(f"quantile {q} outside (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The q-quantile, or None when fewer than MIN_BEYOND samples lie beyond it."""
    value, beyond = nearest_rank(values, q)
    return value if beyond >= MIN_BEYOND else None


def cert_digest(certs: Iterable[str]) -> str:
    """sha256 of a certificate set: sorted, one certificate per line."""
    return hashlib.sha256("\n".join(sorted(certs)).encode("ascii")).hexdigest()


def record_digest(records) -> str:
    """sha256 of a JSON-serialisable outcome record, key order ignored."""
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
