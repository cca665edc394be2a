"""Baseline atomic multicast protocols the paper evaluates against.

* :mod:`repro.baselines.fastcast` — FastCast (DSN'17), 4/8 steps.
* :mod:`repro.baselines.whitebox` — White-Box (DSN'19), 3/5 at leaders.
* :mod:`repro.baselines.classic` — consensus-based multicast of §4.3
  ([19]/[23]; 6/12 steps), the family PrimCast improves on.

All three subclass :class:`repro.core.endpoint.GroupProtocolProcess`.
"""

from .classic import CLASSIC_KINDS, ClassicProcess
from .fastcast import FASTCAST_KINDS, FastCastProcess
from .whitebox import WHITEBOX_KINDS, WhiteBoxProcess

__all__ = [
    "ClassicProcess",
    "CLASSIC_KINDS",
    "FastCastProcess",
    "FASTCAST_KINDS",
    "WhiteBoxProcess",
    "WHITEBOX_KINDS",
]
