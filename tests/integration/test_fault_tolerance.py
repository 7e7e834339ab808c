"""Integration tests for upstream-backup fault tolerance."""

import pytest

from repro.spe.channels import Channel
from repro.spe.errors import ChannelError
from repro.spe.fault_tolerance import (
    DownstreamProgress,
    ReliableSendOperator,
    UpstreamBackup,
    replay_into,
)
from repro.spe.instance import SPEInstance
from repro.spe.operators.aggregate import WindowSpec
from repro.spe.scheduler import Scheduler
from tests.optest import tup


class TestUpstreamBackup:
    def test_prunes_only_tuples_that_cannot_contribute(self):
        progress = DownstreamProgress()
        backup = UpstreamBackup(retention=100, progress=progress)
        for ts in (0, 50, 120, 200):
            backup.record(ts, f"payload-{ts}")
        progress.advance(180)
        backup.prune()
        # horizon = 180 - 100 = 80: tuples at 0 and 50 can no longer contribute.
        assert len(backup) == 2
        assert backup.pruned == 2
        assert backup.pending() == ["payload-120", "payload-200"]

    def test_progress_is_monotone(self):
        progress = DownstreamProgress()
        progress.advance(10)
        progress.advance(5)
        assert progress.watermark == 10

    def test_replay_into_fresh_channel(self):
        backup = UpstreamBackup(retention=10)
        backup.record(1, '{"ts": 1, "values": {"x": 1}, "wall": 0, "prov": {}}')
        channel = Channel("recovery")
        replayed = replay_into(backup, channel)
        assert replayed == 1
        assert channel.closed
        assert channel.watermark == float("inf")
        assert len(channel) == 1

    def test_replay_without_closing_keeps_the_channel_open(self):
        backup = UpstreamBackup(retention=10)
        backup.record(3, '{"ts": 3, "values": {"x": 1}, "wall": 0, "prov": {}}')
        channel = Channel("recovery")
        replay_into(backup, channel, close=False)
        assert not channel.closed
        assert channel.watermark == 3

    def test_replay_into_closed_channel_rejected(self):
        backup = UpstreamBackup(retention=10)
        channel = Channel("closed")
        channel.close()
        with pytest.raises(ChannelError):
            replay_into(backup, channel)


class TestFailureRecovery:
    """End-to-end: a downstream instance is lost and rebuilt from the backup."""

    def _upstream_instance(self, backup, channel):
        upstream = SPEInstance("upstream")
        source = upstream.add_source("source", [tup(ts, v=ts % 3) for ts in range(20)])
        send = upstream.add(ReliableSendOperator("send", channel, backup))
        upstream.connect(source, send)
        return upstream

    def _downstream_instance(self, name, channel):
        downstream = SPEInstance(name)
        receive = downstream.add_receive("receive", channel)
        aggregate = downstream.add_aggregate(
            "count", WindowSpec(size=5), lambda window, key: {"count": len(window)}
        )
        sink = downstream.add_sink("sink")
        downstream.connect(receive, aggregate)
        downstream.connect(aggregate, sink)
        return downstream, sink

    def test_replay_reproduces_the_lost_results(self):
        backup = UpstreamBackup(retention=5)
        primary_channel = Channel("primary")
        upstream = self._upstream_instance(backup, primary_channel)

        # reference run: what the downstream *should* produce.
        reference_downstream, reference_sink = self._downstream_instance(
            "reference", primary_channel
        )
        Scheduler(upstream).run()
        Scheduler(reference_downstream).run()
        expected = [(t.ts, dict(t.values)) for t in reference_sink.received]
        assert expected

        # failure: the downstream instance is lost before persisting anything.
        # The upstream backup replays the still-relevant tuples into a fresh
        # channel feeding a rebuilt downstream instance.  Since the downstream
        # never acknowledged progress, nothing was pruned and the rebuilt
        # instance produces exactly the same results.
        recovery_channel = Channel("recovery")
        replayed = replay_into(backup, recovery_channel)
        assert replayed == backup.recorded
        rebuilt_downstream, rebuilt_sink = self._downstream_instance(
            "rebuilt", recovery_channel
        )
        Scheduler(rebuilt_downstream).run()
        assert [(t.ts, dict(t.values)) for t in rebuilt_sink.received] == expected

    def test_acknowledged_progress_shrinks_the_backup(self):
        backup = UpstreamBackup(retention=5)
        channel = Channel("primary")
        upstream = self._upstream_instance(backup, channel)
        downstream, sink = self._downstream_instance("downstream", channel)
        Scheduler(upstream).run()

        # the downstream acknowledges its progress as it processes.
        backup.progress.advance(15)
        backup.prune()
        assert len(backup) < backup.recorded
        # everything still in the backup is recent enough to contribute.
        assert all(ts >= 15 - 5 for ts, _ in backup._buffer)
        Scheduler(downstream).run()
        assert sink.count > 0
