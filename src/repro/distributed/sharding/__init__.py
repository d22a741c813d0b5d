"""Transfer modeling for sharded execution.

:mod:`.transfers` prices a sharded run's inter-device traffic (B-panel
broadcast out, C-strip gather back) with the alpha-beta
:class:`NetworkModel` the SUMMA simulator also uses, producing a
:class:`~repro.device.trace.Timeline` per run.
"""

from .transfers import (
    NetworkModel,
    measured_transfer_timeline,
    shard_transfer_timeline,
)

__all__ = ["NetworkModel", "measured_transfer_timeline",
           "shard_transfer_timeline"]
