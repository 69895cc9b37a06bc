"""Output gate: whether one CLI run produced the outputs pinned in ``pins.json``.

A run fails when it exits nonzero, when a file pinned by SHA-256 differs,
when its ``verify.json`` reports any failing check, or when a check pinned
by (suite, id, status, expected) is missing or changed.  Added checks pass,
so new verification never breaks the gate; a shrunk grid, trial count or
check list does.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

PINS_FILE = Path(__file__).with_name("pins.json")


def load_pins(name: str) -> dict:
    """The pins of one output set: ``{file name: sha256 hex or pinned checks}``."""
    return json.loads(PINS_FILE.read_text())[name]


def pinned_checks(payload: list) -> list:
    """``[suite, id, status, expected]`` of every check in a ``verify.json`` payload."""
    return [
        [suite["suite"], check["id"], check["status"], check["expected"]]
        for suite in payload
        for check in suite["checks"]
    ]


def verdict(returncode: int, out_dir, pins: dict) -> list:
    """Reasons the run fails the gate; an empty list means it passes."""
    reasons = []
    if returncode != 0:
        reasons.append(f"exit code {returncode}")
    out_dir = Path(out_dir)
    for name, pin in sorted(pins.items()):
        path = out_dir / name
        if not path.is_file():
            reasons.append(f"{name} missing")
        elif isinstance(pin, str):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            if digest != pin:
                reasons.append(f"{name} sha256 {digest[:12]}, pinned {pin[:12]}")
        else:
            reasons.extend(_check_verdict(name, json.loads(path.read_text()), pin))
    return reasons


def _check_verdict(name: str, payload: list, pinned: list) -> list:
    reasons = []
    present = {(suite, cid): (status, expected)
               for suite, cid, status, expected in pinned_checks(payload)}
    failing = sorted(f"{suite}/{cid}" for (suite, cid), (status, _) in present.items()
                     if status == "fail")
    if failing:
        reasons.append(f"{name}: failing checks {', '.join(failing)}")
    for suite, cid, status, expected in pinned:
        found = present.get((suite, cid))
        if found is None:
            reasons.append(f"{name}: check {suite}/{cid} missing")
        elif found != (status, expected):
            reasons.append(
                f"{name}: check {suite}/{cid} is {found[0]} expecting {found[1]!r}, "
                f"pinned {status} expecting {expected!r}"
            )
    return reasons
