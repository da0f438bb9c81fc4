"""Cost-parity store factories (Table 1, scaled 1/1000).

The paper equalizes hardware cost across stores: Prism gets 20 GB of
DRAM cache + 16 GB of NVM buffer; KVell spends the same dollars on
32 GB of DRAM; MatrixKV on 26 GB DRAM + 8 GB NVM.  Simulations scale
capacities by ~1000× (and datasets with them), preserving the ratios
that matter: cache:dataset and buffer:dataset.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.kvell import KVell, KVellConfig
from repro.baselines.matrixkv import MatrixKV, MatrixKVConfig
from repro.baselines.rocksdb_nvm import RocksDBNVM, RocksDBNVMConfig
from repro.baselines.slmdb import SLMDB, SLMDBConfig
from repro.core.config import PrismConfig
from repro.core.prism import Prism
from repro.storage.specs import FLASH_SSD_GEN4_SPEC

MB = 1024**2
GB = 1024**3

# Default benchmark dataset: 20k keys x 1 KB (the paper's 100 GB,
# scaled).  Cache budgets below are the paper's Table 1 expressed as
# fractions of the dataset: Prism 20 GB DRAM + 16 GB NVM per 100 GB,
# KVell 32 GB DRAM, MatrixKV 26 GB DRAM + 8 GB NVM.
DEFAULT_DATASET = 20 * MB

# Simulated per-SSD capacity.  Sets where GC starts, so changing it
# moves virtual-time results (host cost does not depend on it): large
# enough that GC stays out of the way unless an experiment asks for
# space pressure.
DEFAULT_SSD_CAPACITY = 2 * GB


def _ssd_spec(capacity: int = DEFAULT_SSD_CAPACITY):
    return FLASH_SSD_GEN4_SPEC.with_capacity(capacity)


def pwb_capacity(
    dataset_bytes: int, num_threads: int, pwb_total: Optional[int] = None
) -> int:
    """One thread's PWB in :func:`build_prism`: ``pwb_total`` (16% of
    the dataset unless given) split over the threads, at least 64 KB."""
    if pwb_total is None:
        pwb_total = (dataset_bytes * 16) // 100
    return max(64 * 1024, pwb_total // num_threads)


def build_prism(
    num_threads: int = 4,
    num_ssds: int = 2,
    dataset_bytes: int = DEFAULT_DATASET,
    svc_capacity: Optional[int] = None,
    pwb_total: Optional[int] = None,
    expected_keys: int = 200_000,
    ssd_capacity: int = DEFAULT_SSD_CAPACITY,
    config: Optional[PrismConfig] = None,
    **overrides,
) -> Prism:
    """Prism at the paper's $170 configuration (scaled): DRAM cache =
    20% of the dataset, NVM write buffer = 16%."""
    if config is None:
        if svc_capacity is None:
            svc_capacity = dataset_bytes // 5
        overrides.setdefault("ssd_spec", _ssd_spec(ssd_capacity))
        # Benchmarked instances trace per-op phases by default so every
        # experiment's metrics JSON carries latency attribution.
        overrides.setdefault("enable_metrics", True)
        config = PrismConfig(
            num_threads=num_threads,
            num_ssds=num_ssds,
            svc_capacity=svc_capacity,
            pwb_capacity=pwb_capacity(dataset_bytes, num_threads, pwb_total),
            hsit_capacity=max(64, expected_keys * 4),
            **overrides,
        )
    return Prism(config)


def build_kvell(
    num_ssds: int = 2, dataset_bytes: int = DEFAULT_DATASET, **overrides
) -> KVell:
    """KVell spending Prism's NVM budget on extra DRAM instead
    (32% of the dataset)."""
    return KVell(
        KVellConfig(
            num_ssds=num_ssds,
            ssd_spec=_ssd_spec(),
            page_cache_bytes=(dataset_bytes * 32) // 100,
            **overrides,
        )
    )


def build_matrixkv(
    num_ssds: int = 2, dataset_bytes: int = DEFAULT_DATASET, **overrides
) -> MatrixKV:
    """MatrixKV: 26% DRAM block cache + 8% NVM matrix container."""
    overrides.setdefault("memtable_bytes", max(64 * 1024, dataset_bytes // 100))
    return MatrixKV(
        MatrixKVConfig(
            num_ssds=num_ssds,
            ssd_spec=_ssd_spec(),
            block_cache_bytes=(dataset_bytes * 26) // 100,
            container_bytes=(dataset_bytes * 8) // 100,
            **overrides,
        )
    )


def build_rocksdb_nvm(
    dataset_bytes: int = DEFAULT_DATASET, **overrides
) -> RocksDBNVM:
    """RocksDB with WAL + SSTables on NVM (cost-unbounded reference)."""
    overrides.setdefault("memtable_bytes", max(64 * 1024, dataset_bytes // 100))
    return RocksDBNVM(
        RocksDBNVMConfig(
            block_cache_bytes=(dataset_bytes * 26) // 100,
            **overrides,
        )
    )


def build_slmdb(num_ssds: int = 2, **overrides) -> SLMDB:
    """SLM-DB: single-threaded, NVM memtable, persistent B+-tree.

    The paper gives SLM-DB a 64 MB memtable regardless of dataset; the
    scaled one (1 MB) keeps that spirit."""
    return SLMDB(
        SLMDBConfig(
            num_ssds=num_ssds,
            ssd_spec=_ssd_spec(),
            memtable_bytes=1 * MB,
            **overrides,
        )
    )


# The stores of the evaluation, by the name the figures print.  Each
# entry takes (dataset_bytes, num_threads, num_ssds, prism_overrides)
# and passes its builder what that store can use: only Prism has
# client-thread-sized buffers and PrismConfig fields, RocksDB-NVM has
# no SSD, and SLM-DB's buffers do not follow the dataset.
STORES = {
    "Prism": lambda data, threads, ssds, prism: build_prism(
        num_threads=threads, num_ssds=ssds, dataset_bytes=data, **prism
    ),
    "KVell": lambda data, threads, ssds, prism: build_kvell(
        num_ssds=ssds, dataset_bytes=data
    ),
    "KVell(QD1)": lambda data, threads, ssds, prism: build_kvell(
        num_ssds=ssds, dataset_bytes=data, queue_depth=1
    ),
    "KVell(QD64)": lambda data, threads, ssds, prism: build_kvell(
        num_ssds=ssds, dataset_bytes=data, queue_depth=64
    ),
    "MatrixKV": lambda data, threads, ssds, prism: build_matrixkv(
        num_ssds=ssds, dataset_bytes=data
    ),
    "RocksDB-NVM": lambda data, threads, ssds, prism: build_rocksdb_nvm(
        dataset_bytes=data
    ),
    "SLM-DB": lambda data, threads, ssds, prism: build_slmdb(num_ssds=ssds),
}


def build_store(
    name: str,
    dataset_bytes: int = DEFAULT_DATASET,
    num_threads: int = 4,
    num_ssds: int = 2,
    **prism_overrides,
):
    """The store called ``name`` in the paper's figures, at cost parity
    for ``dataset_bytes``.  ``prism_overrides`` go to
    :func:`build_prism` and are dropped for the baselines, so a sweep
    over Prism's configuration can name its competitors too."""
    return STORES[name](dataset_bytes, num_threads, num_ssds, prism_overrides)
