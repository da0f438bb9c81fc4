"""Figure 1: the heterogeneous-device characteristics table."""

from benchmarks.conftest import banner
from repro.storage.specs import (
    DEVICE_CATALOG,
    FLASH_SSD_GEN4_SPEC,
    NVM_SPEC,
    format_catalog,
)


def test_fig01_device_catalog():
    table = format_catalog()
    banner("Figure 1 — heterogeneous storage media")
    print(table)
    print()
    ratio = NVM_SPEC.cost_per_tb / FLASH_SSD_GEN4_SPEC.cost_per_tb
    print(f"  flash is {ratio:.1f}x cheaper per TB than NVM (paper: 27.3x)")
    lat = FLASH_SSD_GEN4_SPEC.read_latency / NVM_SPEC.read_latency
    print(f"  NVM read latency is {lat:.0f}x lower than flash (paper: ~167x)")
    assert len(DEVICE_CATALOG) == 6  # five paper devices + the QLC cold tier
    assert 27 <= ratio <= 28
    # the paper's central observation: no total order between devices
    assert NVM_SPEC.read_latency < FLASH_SSD_GEN4_SPEC.read_latency
    assert FLASH_SSD_GEN4_SPEC.read_bandwidth > NVM_SPEC.read_bandwidth
