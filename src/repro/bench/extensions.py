"""Extension experiments: the paper's §8 discussion, implemented.

The paper closes by arguing its lessons transfer to emerging media —
CXL-based persistent memory, ultra-low-latency SSDs, PCIe Gen5 flash.
These experiments re-run Prism with those devices substituted, using
the same cost-parity harness as the evaluation:

* ``cxl_nvm``: the Persistent Write Buffer / HSIT / index move to
  CXL-attached persistent memory (one hop slower than DCPMM, cheaper
  and far more capacity).
* ``optane_value_storage``: Value Storage on ultra-low-latency Optane
  SSDs instead of flash — less bandwidth, 5x lower read latency.
* ``pcie5_flash``: next-generation flash doubles Value Storage
  bandwidth; the latency/bandwidth split widens further.
"""

from __future__ import annotations

from itertools import product
from typing import Dict

from repro.bench.experiments import NUM_THREADS, mix_unit, sizing, sweep
from repro.bench.runner import RunResult
from repro.bench.stores import DEFAULT_SSD_CAPACITY
from repro.storage.specs import (
    CXL_NVM_SPEC,
    OPTANE_SSD_SPEC,
    PCIE5_SSD_SPEC,
    DeviceSpec,
)

# variant -> the device specs it substitutes into the paper's
# DCPMM + PCIe Gen4 flash configuration.
MEDIA: Dict[str, Dict[str, DeviceSpec]] = {
    "dcpmm+gen4 (paper)": {},
    "cxl-nvm+gen4": {"nvm_spec": CXL_NVM_SPEC},
    "dcpmm+optane-ssd": {
        "ssd_spec": OPTANE_SSD_SPEC.with_capacity(DEFAULT_SSD_CAPACITY)
    },
    "dcpmm+gen5": {
        "ssd_spec": PCIE5_SSD_SPEC.with_capacity(DEFAULT_SSD_CAPACITY)
    },
}


def media_matrix(
    num_keys: int = None,
    num_ops: int = None,
    num_threads: int = NUM_THREADS,
) -> Dict[str, Dict[str, RunResult]]:
    """Prism across device generations (§8), workloads A / C / E."""
    num_keys, num_ops = sizing(num_keys, num_ops, ops=8_000)
    return sweep(_media_unit, product(MEDIA), (num_keys, num_ops, num_threads))


def _media_unit(label: str, *sizes) -> Dict[str, RunResult]:
    """One device-generation variant of the media matrix."""
    return mix_unit("Prism", ("A", "C", "E"), *sizes, **MEDIA[label])
