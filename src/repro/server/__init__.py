"""The wire service layer (``repro.server``).

An asyncio TCP server (:mod:`repro.server.server`) speaking a
length-prefixed JSON frame protocol (:mod:`repro.server.protocol`), with a
blocking test/benchmark client (:mod:`repro.server.client`).  Concurrency
control — per-view write locks, snapshot reads, group commit —
lives in :mod:`repro.concurrency`; this package owns the network edge:
framing, admission control, worker-pool dispatch, per-connection session
lifecycle.
"""

from repro.server.client import ServerClient
from repro.server.server import AnalystServer, ServerThread

__all__ = ["AnalystServer", "ServerClient", "ServerThread"]
