"""PrimCast — the paper's primary contribution.

Public surface:

* :class:`PrimCastProcess` — one replica, implementing Algorithms 1–3.
* :class:`GroupProtocolProcess` — the endpoint base every protocol
  (PrimCast and the baselines) subclasses.
* :class:`GroupConfig` / :func:`uniform_groups` — membership + quorums.
* :class:`Multicast` and :data:`MessageId` — application messages.
* :class:`Epoch` — the primary-based protocol's epochs.
* :mod:`repro.core.spec` — literal Algorithm-1 reference predicates.
"""

from .config import GroupConfig, uniform_groups
from .endpoint import GroupProtocolProcess
from .epoch import Epoch, initial_epoch
from .messages import (
    Ack,
    AcceptEpoch,
    Bump,
    EpochPromise,
    MessageId,
    Multicast,
    NewEpoch,
    NewState,
    Start,
)
from .process import CANDIDATE, FOLLOWER, PRIMARY, PROMISED, PrimCastProcess
from .state import AckTracker, ClockTracker, SafetyViolationError

__all__ = [
    "PrimCastProcess",
    "GroupProtocolProcess",
    "GroupConfig",
    "uniform_groups",
    "Multicast",
    "MessageId",
    "Epoch",
    "initial_epoch",
    "Start",
    "Ack",
    "Bump",
    "NewEpoch",
    "EpochPromise",
    "NewState",
    "AcceptEpoch",
    "PRIMARY",
    "FOLLOWER",
    "CANDIDATE",
    "PROMISED",
    "AckTracker",
    "ClockTracker",
    "SafetyViolationError",
]
