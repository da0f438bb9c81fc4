import pytest

from repro.storage.iouring import IORequest, IOUring
from repro.storage.specs import FLASH_SSD_GEN4_SPEC
from repro.storage.ssd import SSDDevice

MB = 1024**2


@pytest.fixture
def ring(ssd):
    return IOUring(ssd, queue_depth=8)


class TestIORequest:
    def test_write_requires_data(self):
        with pytest.raises(ValueError):
            IORequest("write", 0, 10)

    def test_write_size_from_data(self):
        req = IORequest("write", 0, 0, data=b"abcd")
        assert req.size == 4

    def test_unknown_op(self):
        with pytest.raises(ValueError):
            IORequest("fsync", 0, 0)


class TestSubmission:
    def test_read_fills_result(self, ssd, ring):
        ssd.write_raw(0, b"hello")
        req = IORequest("read", 0, 5)
        ring.submit(0.0, [req])
        assert req.result == b"hello"
        assert req.completion > 0

    def test_submit_returns_before_completion(self, ring):
        req = IORequest("read", 0, 4096)
        control_back = ring.submit(0.0, [req])
        assert control_back < req.completion

    def test_empty_batch(self, ring):
        assert ring.submit(1.0, []) == 1.0

    def test_batch_amortizes_syscall(self, ssd):
        ring_a = IOUring(ssd, 64)
        reqs = [IORequest("read", i * 4096, 4096) for i in range(16)]
        t_batched = ring_a.submit(0.0, reqs)
        ring_b = IOUring(SSDDevice(ssd.spec), 64)
        t_single = 0.0
        for i in range(16):
            t_single = ring_b.submit(t_single, [IORequest("read", i * 4096, 4096)])
        assert t_batched < t_single

    def test_queue_depth_caps_outstanding(self, ssd):
        """With QD=1 requests serialize; deeper rings pipeline."""
        shallow = IOUring(ssd, 1)
        reqs = [IORequest("read", i * 4096, 4096) for i in range(8)]
        shallow.submit(0.0, reqs)
        serial_done = max(r.completion for r in reqs)

        deep = IOUring(SSDDevice(ssd.spec), 64)
        reqs2 = [IORequest("read", i * 4096, 4096) for i in range(8)]
        deep.submit(0.0, reqs2)
        pipelined_done = max(r.completion for r in reqs2)
        assert pipelined_done < serial_done / 3

    def test_submit_one_skips_syscall_cost(self, ssd):
        ring = IOUring(ssd, 8)
        req = IORequest("read", 0, 512)
        done = ring.submit_one(0.0, req)
        assert done == req.completion
        # roughly device latency, no extra syscall window
        assert done < 55e-6

    def test_submit_and_wait(self, ring):
        reqs = [IORequest("read", 0, 512), IORequest("read", 4096, 512)]
        done = ring.submit_and_wait(0.0, reqs)
        assert done == max(r.completion for r in reqs)

    def test_write_request_lands_on_device(self, ssd, ring):
        ring.submit(0.0, [IORequest("write", 8192, 0, data=b"persist")])
        assert ssd.read_raw(8192, 7) == b"persist"

    def test_idle_tracking(self, ring):
        assert ring.idle_at(0.0)
        req = IORequest("read", 0, 4096)
        ring.submit(0.0, [req])
        assert not ring.idle_at(req.completion - 1e-9)
        assert ring.idle_at(req.completion + 1e-9)

    def test_inflight_count(self, ring):
        reqs = [IORequest("read", i * 4096, 512) for i in range(3)]
        ring.submit(0.0, reqs)
        assert ring.inflight_at(0.0) in (2, 3)  # submission costs may reap none
        assert ring.inflight_at(max(r.completion for r in reqs)) == 0

    def test_counters_tell_batches_from_single_sqes(self, ring):
        """``requests_submitted`` counts every SQE, ``batches_submitted``
        only ``submit()`` calls — their ratio is not a batch size once
        ``submit_one`` (the thread combiner's path) is in the mix, which
        is why the ring has no ``average_batch`` of its own
        (``ThreadCombiner.average_batch`` counts its own batches)."""
        ring.submit(0.0, [IORequest("read", 0, 512)])
        ring.submit(0.0, [IORequest("read", 0, 512), IORequest("read", 4096, 512)])
        assert (ring.requests_submitted, ring.batches_submitted) == (3, 2)
        for i in range(4):
            ring.submit_one(0.0, IORequest("read", i * 4096, 512))
        assert (ring.requests_submitted, ring.batches_submitted) == (7, 2)
        assert not hasattr(ring, "average_batch")

    def test_invalid_queue_depth(self, ssd):
        with pytest.raises(ValueError):
            IOUring(ssd, 0)

