"""A stand-in for the removed shard executor; ``bench/scan_mix.py`` is its only caller.

A sharded table runs through the one chunk engine, in process, so there is
nothing to start or stop: :func:`get_executor` returns an object whose
``close()`` does nothing and whose ``resolved_mode`` is ``"serial"``.
"""

from types import SimpleNamespace
from typing import Any


def get_executor(storage: Any, tracer: Any = None) -> SimpleNamespace:
    """What the benchmark closes and reads the mode of; ``storage`` is unused."""
    return SimpleNamespace(close=lambda: None, resolved_mode="serial")


__all__ = ["get_executor"]
