"""Reproducible random streams.

Counter-based generators (Philox) keyed by a user seed plus a stream name, so
that event times, exchange-site selection and initial conditions never share a
stream and parallel ensembles replay bit-for-bit.
"""

from __future__ import annotations

import zlib

import numpy as np


def stream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Independent generator for (seed, name, index).

    ``index`` distinguishes trajectories of an ensemble.
    """
    key = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(key, int(index)))
    return np.random.Generator(np.random.Philox(ss))
