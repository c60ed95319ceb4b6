"""Multi-node simulation cluster: consistent-hash routing over workers.

The single-process job server (:mod:`repro.service`) coalesces duplicate
work on content-addressed result-cache keys.  Because those keys fully
determine a cell's outcome, *placement* of a cell is free — any worker
computes the identical result entry.  This package scales the service
out by exploiting exactly that:

:mod:`repro.cluster.ring`
    A deterministic consistent-hash ring mapping result-cache keys onto
    worker nodes (virtual nodes for balance, minimal movement on
    membership change).

:mod:`repro.cluster.link`
    One multiplexed persistent connection per worker, speaking the
    service's JSON-lines protocol.

:mod:`repro.cluster.router`
    The router daemon (``repro route``): serves ``cell``/``sweep``
    requests on the daemon's own scheduler and forwards each missed key
    to its owning worker, forwards ``experiment`` requests whole to one
    worker and relays their progress, health-checks workers and fails
    routed keys over to the next ring node with exactly-once semantics
    preserved by the key-addressed shared store.
"""

from .link import WorkerDown, WorkerLink
from .ring import HashRing
from .router import ClusterRouter

__all__ = ["ClusterRouter", "HashRing", "WorkerDown", "WorkerLink"]
