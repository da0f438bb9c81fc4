"""Cross-device self-healing (ISSUE 3).

Shared repair machinery used by the read path (read-repair of corrupt
or dead records), the GC (healing victims before moving them), the
background :class:`Scrubber`, and the explicit dead-device rebuild.
"""

from repro.repair.repair import (
    RebuildReport,
    fetch_value,
    mirror_value,
    read_repair,
    rebuild_storage,
)
from repro.repair.scrubber import Scrubber, ScrubReport

__all__ = [
    "RebuildReport",
    "ScrubReport",
    "Scrubber",
    "fetch_value",
    "mirror_value",
    "read_repair",
    "rebuild_storage",
]
