"""Fault-path regression tests: crash propagation, backup ordering, torn tails.

Covers the failure scenarios of the bugfix sweep:

* an instance crashing mid-stream must surface the *original* exception
  (not a stuck-graph error or a timeout masking it) under the in-process
  :class:`~repro.spe.runtime.DistributedRuntime` (the out-of-process
  equivalence suite runs the same scenario on forked and daemon workers),
* a Receive racing a concurrent producer must never emit behind the
  watermark it forwarded,
* a :class:`~repro.provstore.backends.JsonlLedgerBackend` whose writer was
  killed mid-append (torn trailing JSONL line) must still re-open,
* :class:`~repro.spe.channels.Channel` traffic counters must stay
  consistent under concurrent producer-side mutation.
"""

from __future__ import annotations

import threading

import pytest

from repro.provstore import ProvenanceLedger, open_provenance_store
from repro.provstore.backends import JsonlLedgerBackend, LedgerError
from repro.spe.channels import Channel, InMemoryTransport
from repro.spe.runtime import DistributedRuntime
from tests.optest import blobs, exploding_supplier, tup, two_instances


class TestInProcessCrashPropagation:
    def test_original_error_surfaces_not_a_stuck_graph(self):
        upstream, downstream = two_instances(exploding_supplier)
        runtime = DistributedRuntime([upstream, downstream])
        # the supplier's own exception, unwrapped: no SchedulingError about
        # the downstream Receive that will now never see a close marker.
        with pytest.raises(RuntimeError, match="upstream exploded mid-stream"):
            runtime.run()
        # everything sent before the crash was delivered, in order.
        sink = downstream["sink"]
        assert [t["v"] for t in sink.received] == list(range(sink.count))
        assert not runtime.finished


class TestTornLedgerTail:
    def _write_store(self, path, mappings=3):
        ledger = ProvenanceLedger(
            backend=JsonlLedgerBackend(path, segment_records=100), retention=0.0
        )
        for index in range(mappings):
            ledger.ingest(
                tup(
                    float(index),
                    sink_ts=float(index),
                    sink_id=f"sink:{index}",
                    sink_value=index,
                    ts_o=float(index),
                    id_o=f"src:{index}",
                )
            )
        ledger.flush()
        ledger.close()
        return ledger

    def test_torn_trailing_line_is_tolerated_and_reported(self, tmp_path):
        path = tmp_path / "store"
        live = self._write_store(path)
        segment = sorted(path.glob("segment-*.jsonl"))[-1]
        intact = segment.read_text()
        # simulate a writer killed mid-append: the final line is truncated.
        segment.write_text(intact.rstrip("\n")[:-7])
        reopened = open_provenance_store(path)
        assert reopened.backend.torn_tail is not None
        assert reopened.backend.torn_tail["segment"] == segment.name
        # everything before the torn line is served normally.
        assert reopened.sealed_count == live.sealed_count - 1
        for mapping in reopened.mappings():
            assert live.mapping_for(mapping.sink_key) is not None

    def test_mid_file_corruption_still_refuses_to_open(self, tmp_path):
        path = tmp_path / "store"
        self._write_store(path)
        segment = sorted(path.glob("segment-*.jsonl"))[-1]
        lines = segment.read_text().rstrip("\n").split("\n")
        lines[1] = lines[1][:-5]  # corrupt a line that is *not* the tail
        segment.write_text("\n".join(lines) + "\n")
        with pytest.raises(LedgerError, match="not a torn tail"):
            open_provenance_store(path)

    def test_intact_store_reports_no_torn_tail(self, tmp_path):
        path = tmp_path / "store"
        live = self._write_store(path)
        reopened = open_provenance_store(path)
        assert reopened.backend.torn_tail is None
        assert reopened.sealed_count == live.sealed_count


class TestReceiveWatermarkRace:
    """A producer racing between the Receive's drain and its watermark read.

    The Receive must snapshot the channel watermark *before* draining: the
    producer appends tuples and only then advances the watermark covering
    them, so a watermark read after the drain can observe an advance whose
    tuples the drain missed.  The Receive would then promise downstream
    that nothing below the watermark follows -- and emit exactly such a
    tuple on its next wake-up, making an order-restoring Merge release out
    of order (a crash first seen with a concurrent producer under keyed
    parallelism).
    """

    class _RacingTransport(InMemoryTransport):
        """Interleaves a producer burst inside the consumer's first drain."""

        def __init__(self):
            super().__init__()
            self.raced = False

        def receive_all(self):
            drained = super().receive_all()
            if not self.raced:
                self.raced = True
                # the producer thread runs here: two tuples, then the
                # watermark that covers them.
                for blob in blobs([tup(10530.0, v=1)], [tup(10590.0, v=2)], channel="racy"):
                    super().send(blob)
                super().advance_watermark(10590.0)
            return drained

    def test_tuples_are_never_emitted_behind_the_watermark(self):
        from repro.spe.operators.send_receive import ReceiveOperator
        from repro.spe.streams import Stream

        transport = self._RacingTransport()
        channel = Channel("racy", transport=transport)
        receive = ReceiveOperator("receive", channel)
        out = Stream("out")  # enforces order: emitting behind a watermark raises
        receive.add_output(out)
        receive.work()
        assert transport.raced
        # both racing tuples were recovered in the same wake-up, *before*
        # the watermark covering them was forwarded downstream.
        assert receive.tuples_in == 2
        assert out.watermark == 10590.0


class TestChannelCounterConsistency:
    def test_concurrent_producers_never_lose_counter_updates(self):
        channel = Channel("contended")
        per_thread = 2000
        (blob,) = blobs([tup(0.0, v=0), tup(1.0, v=1)], channel="contended")

        def blast(base):
            for index in range(per_thread):
                channel.send_block(blob, 2)
                channel.advance_watermark(float(base + index))

        threads = [
            threading.Thread(target=blast, args=(base,)) for base in (0, 10_000)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tuples_sent, bytes_sent = channel.counters()
        assert tuples_sent == 2 * 2 * per_thread
        assert bytes_sent == 2 * per_thread * len(blob)
        assert channel.watermark == float(10_000 + per_thread - 1)
        assert len(channel) == 2 * per_thread
