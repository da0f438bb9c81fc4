"""Device characteristics from the paper's Figure 1.

Bandwidths are bytes/second, latencies are seconds, and costs are
dollars per terabyte, exactly as reported for the evaluated hardware.
The catalog is exported both for configuring simulations and for the
Figure 1 benchmark, which reprints the table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

GB = 1024**3
TB = 1024**4
US = 1e-6
PB = 1024**5


@dataclass(frozen=True)
class DeviceSpec:
    """Performance and cost envelope of one storage device."""

    name: str
    kind: str  # "dram" | "nvm" | "ssd"
    read_bandwidth: float  # bytes / second
    write_bandwidth: float  # bytes / second
    read_latency: float  # seconds per request
    write_latency: float  # seconds per request
    cost_per_tb: float  # dollars
    capacity: int  # bytes
    endurance_pbw: float  # petabytes written before wear-out (inf for DRAM)
    lanes: int = 1  # internal parallelism for bandwidth channels

    def cost(self) -> float:
        """Dollar cost of this device at its capacity."""
        return self.cost_per_tb * (self.capacity / TB)

    def with_capacity(self, capacity: int) -> "DeviceSpec":
        """The same device resized (cost scales with capacity)."""
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        return replace(self, capacity=capacity)

    def endurance_bytes(self) -> float:
        return self.endurance_pbw * PB


DRAM_SPEC = DeviceSpec(
    name="SK Hynix DDR4",
    kind="dram",
    read_bandwidth=15 * GB,
    write_bandwidth=15 * GB,
    read_latency=0.08 * US,
    write_latency=0.08 * US,
    cost_per_tb=5427.0,
    capacity=16 * GB,
    endurance_pbw=float("inf"),
)

NVM_SPEC = DeviceSpec(
    name="Intel Optane DCPMM",
    kind="nvm",
    read_bandwidth=int(6.8 * GB),
    write_bandwidth=int(1.9 * GB),
    read_latency=0.30 * US,
    write_latency=0.09 * US,
    cost_per_tb=4096.0,
    capacity=128 * GB,
    endurance_pbw=292.0,
)

OPTANE_SSD_SPEC = DeviceSpec(
    name="Intel Optane 905P",
    kind="ssd",
    read_bandwidth=int(2.6 * GB),
    write_bandwidth=int(2.2 * GB),
    read_latency=10 * US,
    write_latency=10 * US,
    cost_per_tb=1024.0,
    capacity=960 * GB,
    endurance_pbw=17.5,
)

FLASH_SSD_GEN4_SPEC = DeviceSpec(
    name="Samsung 980 Pro",
    kind="ssd",
    read_bandwidth=7 * GB,
    write_bandwidth=5 * GB,
    read_latency=50 * US,
    write_latency=20 * US,
    cost_per_tb=150.0,
    capacity=1 * TB,
    endurance_pbw=0.6,
)

FLASH_SSD_GEN3_SPEC = DeviceSpec(
    name="Samsung 980",
    kind="ssd",
    read_bandwidth=int(3.5 * GB),
    write_bandwidth=3 * GB,
    read_latency=60 * US,
    write_latency=20 * US,
    cost_per_tb=100.0,
    capacity=1 * TB,
    endurance_pbw=0.6,
)

QLC_SSD_SPEC = DeviceSpec(
    name="Samsung 870 QVO (QLC)",
    kind="ssd",
    read_bandwidth=int(0.56 * GB),  # SATA-bound
    write_bandwidth=int(0.35 * GB),  # sustained QLC program, past the SLC cache
    read_latency=120 * US,
    write_latency=90 * US,
    cost_per_tb=45.0,
    capacity=8 * TB,
    endurance_pbw=2.9,  # 0.36 PBW/TB — the capacity tier wears fastest
)

# --- emerging media from the paper's discussion (§8) -----------------
# Not part of Figure 1's evaluated testbed; used by the extension
# experiments exploring "other emerging storage media".

CXL_NVM_SPEC = DeviceSpec(
    name="CXL persistent memory",
    kind="nvm",
    read_bandwidth=int(8.0 * GB),  # a x8 CXL 2.0 link
    write_bandwidth=int(4.0 * GB),
    read_latency=0.60 * US,  # DCPMM latency + one CXL hop
    write_latency=0.35 * US,
    cost_per_tb=2048.0,  # expansion memory undercuts DIMM NVM
    capacity=512 * GB,
    endurance_pbw=292.0,
)

PCIE5_SSD_SPEC = DeviceSpec(
    name="PCIe Gen5 flash SSD",
    kind="ssd",
    read_bandwidth=13 * GB,  # the Samsung Gen5 teaser the paper cites
    write_bandwidth=int(6.6 * GB),
    read_latency=50 * US,
    write_latency=20 * US,
    cost_per_tb=150.0,
    capacity=2 * TB,
    endurance_pbw=1.2,
)

DEVICE_CATALOG: Dict[str, DeviceSpec] = {
    spec.name: spec
    for spec in (
        DRAM_SPEC,
        NVM_SPEC,
        OPTANE_SSD_SPEC,
        FLASH_SSD_GEN4_SPEC,
        FLASH_SSD_GEN3_SPEC,
        QLC_SSD_SPEC,
    )
}
