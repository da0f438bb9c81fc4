from repro.bench.stores import (
    DEFAULT_DATASET,
    build_kvell,
    build_matrixkv,
    build_prism,
    build_rocksdb_nvm,
    build_slmdb,
    build_store,
)

MB = 1024**2


def test_prism_cost_parity_ratios():
    """Table 1 scaled: DRAM cache 20% and NVM buffer 16% of the data."""
    store = build_prism(dataset_bytes=100 * MB, num_threads=4)
    assert store.config.svc_capacity == 20 * MB
    assert store.config.pwb_capacity * 4 == 16 * MB


def test_kvell_gets_dram_instead_of_nvm():
    store = build_kvell(dataset_bytes=100 * MB)
    assert store.config.page_cache_bytes == 32 * MB


def test_matrixkv_split():
    store = build_matrixkv(dataset_bytes=100 * MB)
    assert store.config.block_cache_bytes == 26 * MB
    assert store.config.container_bytes == 8 * MB


def test_rocksdb_nvm_builds():
    store = build_rocksdb_nvm(dataset_bytes=100 * MB)
    assert store.config.block_cache_bytes == 26 * MB


def test_slmdb_builds():
    store = build_slmdb()
    assert store.config.memtable_bytes == 1 * MB


def test_stores_expose_common_interface():
    for maker in (build_prism, build_kvell, build_matrixkv, build_rocksdb_nvm, build_slmdb):
        store = maker()
        store.put(b"k", b"v")
        assert store.get(b"k") == b"v"
        assert store.scan(b"k", 1)[0] == (b"k", b"v")
        assert store.ssd_bytes_written() >= 0
        assert isinstance(store.stats(), dict)
        assert store.name


def test_hsit_sized_for_expected_keys():
    store = build_prism(expected_keys=1000)
    assert store.config.hsit_capacity >= 4000


def test_build_store_by_figure_name():
    """Each legend name builds its store at the cost-parity sizing of
    the dataset given; Prism's overrides are not the baselines' to take."""
    prism = build_store("Prism", 100 * MB, 8, 4, expected_keys=1000)
    assert (prism.config.num_threads, prism.config.num_ssds) == (8, 4)
    assert prism.config.svc_capacity == 20 * MB
    assert prism.config.hsit_capacity == 4000
    for name, depth in (("KVell(QD1)", 1), ("KVell(QD64)", 64)):
        kvell = build_store(name, 100 * MB, num_ssds=4, expected_keys=1000)
        assert kvell.config.queue_depth == depth
        assert kvell.config.num_ssds == 4
        assert kvell.config.page_cache_bytes == 32 * MB
    assert build_store("KVell").config == build_kvell().config
    assert build_store("MatrixKV", 100 * MB).config.container_bytes == 8 * MB
    assert build_store("RocksDB-NVM", 100 * MB).config.block_cache_bytes == 26 * MB
    assert build_store("SLM-DB", 100 * MB).config.memtable_bytes == 1 * MB
