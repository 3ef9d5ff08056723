"""Reference machine-report encoder.

This is the encoder ``report.emit_machine`` replaced: it rebuilds the payload
with non-finite floats as strings, numpy scalars as Python numbers and every
dict key as ``str``, then lets ``json.dumps`` walk the copy. The differential
tests compare the column-wise renderer against it, so keep it as it is: a
change here no longer tests what the old code did.
"""

from __future__ import annotations

import json
import math

import numpy as np


def json_safe(value):
    """Recursively replace non-finite floats (JSON has no literal for them)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else repr(value)
    if isinstance(value, (np.floating, np.integer)):
        return json_safe(value.item())
    if isinstance(value, dict):
        return {str(key): json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(item) for item in value]
    return value


def emit_machine(doc) -> bytes:
    payload = {
        "command": doc.command,
        "config": json_safe(doc.config),
        "meta": json_safe(doc.meta),
        "results": json_safe(doc.results),
        "warnings": list(doc.warnings),
    }
    text = json.dumps(payload, sort_keys=True, indent=2,
                      ensure_ascii=False, allow_nan=False)
    return (text + "\n").encode("utf-8")
