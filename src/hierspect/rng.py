"""Named random substreams derived from a single user seed.

Every stochastic component draws from ``substream(seed, *tokens)`` with a
stable token path (e.g. ``("sample", zeta)``), so results do not
depend on call order or scheduling and components can be re-seeded
independently.
"""

from __future__ import annotations

import numpy as np


def _token_entropy(token) -> int:
    if isinstance(token, (int, np.integer)):
        return int(token)
    if isinstance(token, str):
        return int.from_bytes(token.encode("utf-8"), "little")
    raise TypeError(f"substream tokens must be int or str, got {type(token)!r}")


def substream(seed: int, *tokens) -> np.random.Generator:
    """Return a Generator for the stream named by ``tokens`` under ``seed``."""
    entropy = [int(seed)] + [_token_entropy(t) for t in tokens]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def substream_seed(seed: int, *tokens) -> int:
    """Return a derived integer seed (stable across platforms and runs)."""
    entropy = [int(seed)] + [_token_entropy(t) for t in tokens]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])
