import pytest

from repro.storage.specs import (
    DEVICE_CATALOG,
    DRAM_SPEC,
    FLASH_SSD_GEN4_SPEC,
    NVM_SPEC,
    QLC_SSD_SPEC,
)

GB = 1024**3
TB = 1024**4
US = 1e-6


def test_catalog_has_all_six_devices():
    # Figure 1's five evaluated devices plus the QLC cold-tier SSD
    # (ISSUE 9's capacity tier).
    assert len(DEVICE_CATALOG) == 6


def test_qlc_is_the_capacity_tier():
    """The cold tier trades everything for $/TB: slower, cheaper, and
    far less endurance per TB than the fast Gen4 flash."""
    assert QLC_SSD_SPEC.cost_per_tb < FLASH_SSD_GEN4_SPEC.cost_per_tb / 3
    assert QLC_SSD_SPEC.capacity > FLASH_SSD_GEN4_SPEC.capacity
    assert QLC_SSD_SPEC.read_bandwidth < FLASH_SSD_GEN4_SPEC.read_bandwidth
    qlc_pbw_per_tb = QLC_SSD_SPEC.endurance_pbw / (QLC_SSD_SPEC.capacity / TB)
    fast_pbw_per_tb = FLASH_SSD_GEN4_SPEC.endurance_pbw / (
        FLASH_SSD_GEN4_SPEC.capacity / TB
    )
    assert qlc_pbw_per_tb < fast_pbw_per_tb


def test_figure1_nvm_numbers():
    assert NVM_SPEC.read_bandwidth == int(6.8 * GB)
    assert NVM_SPEC.write_bandwidth == int(1.9 * GB)
    assert NVM_SPEC.read_latency == pytest.approx(0.30 * US)
    assert NVM_SPEC.cost_per_tb == 4096.0


def test_figure1_flash_numbers():
    assert FLASH_SSD_GEN4_SPEC.read_bandwidth == 7 * GB
    assert FLASH_SSD_GEN4_SPEC.write_bandwidth == 5 * GB
    assert FLASH_SSD_GEN4_SPEC.read_latency == pytest.approx(50 * US)
    assert FLASH_SSD_GEN4_SPEC.cost_per_tb == 150.0


def test_cost_ratio_nvm_vs_flash_is_27x():
    """The paper's headline: flash is ~27x cheaper per TB than NVM."""
    ratio = NVM_SPEC.cost_per_tb / FLASH_SSD_GEN4_SPEC.cost_per_tb
    assert 27 <= ratio <= 28


def test_no_clear_performance_hierarchy():
    """Figure 1's point: NVM wins latency, flash wins bandwidth."""
    assert NVM_SPEC.read_latency < FLASH_SSD_GEN4_SPEC.read_latency
    assert FLASH_SSD_GEN4_SPEC.read_bandwidth > NVM_SPEC.read_bandwidth


def test_with_capacity_scales_cost():
    half = FLASH_SSD_GEN4_SPEC.with_capacity(FLASH_SSD_GEN4_SPEC.capacity // 2)
    assert half.cost() == pytest.approx(FLASH_SSD_GEN4_SPEC.cost() / 2)


def test_with_capacity_rejects_nonpositive():
    with pytest.raises(ValueError):
        FLASH_SSD_GEN4_SPEC.with_capacity(0)


def test_endurance_gap():
    """NVM endurance is orders of magnitude above flash (292 vs 0.6 PBW)."""
    assert NVM_SPEC.endurance_pbw / FLASH_SSD_GEN4_SPEC.endurance_pbw > 400


def test_dram_endurance_infinite():
    assert DRAM_SPEC.endurance_bytes() == float("inf")
