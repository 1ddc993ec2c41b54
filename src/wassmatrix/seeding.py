"""Deterministic seed derivation.

All randomness in an experiment flows from one master seed.  Stage seeds
are derived by hashing the master seed together with a path of stage
names (SHA-256, first 8 little-endian bytes), so re-running any single
stage of a pipeline reproduces its random draws exactly while distinct
stages stay decorrelated.
"""

import hashlib


def derive_seed(master: int, *stages) -> int:
    """Return a uint64 seed for the stage path ``stages`` under ``master``."""
    h = hashlib.sha256()
    h.update(str(int(master)).encode("ascii"))
    for stage in stages:
        h.update(b"/")
        h.update(str(stage).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")

