"""Tests for the performance model and measurement helpers."""

import pytest

from repro.avmm.config import AvmmConfig, Configuration
from repro.metrics.cpu import CpuModel
from repro.metrics.framerate import FrameRateModel
from repro.errors import DuplicateRequestError
from repro.metrics.latency import LatencyRecorder, percentile, summarize_rtts
from repro.metrics.logstats import LogGrowthSeries, log_content_breakdown
from repro.metrics.perfmodel import CostParameters, PerfModel


def model_for(configuration):
    return PerfModel.for_config(AvmmConfig.for_configuration(configuration))


class TestPerfModel:
    def test_latency_charges_increase_with_configuration(self):
        delays = [model_for(c).outgoing_packet_delay(60) +
                  model_for(c).incoming_packet_delay(60)
                  for c in (Configuration.BARE_HW, Configuration.VMWARE_NOREC,
                            Configuration.VMWARE_REC, Configuration.AVMM_NOSIG,
                            Configuration.AVMM_RSA768)]
        assert delays == sorted(delays)
        assert delays[0] == 0.0
        assert delays[-1] > 2e-3  # signatures dominate

    def test_bare_hw_charges_nothing(self):
        model = model_for(Configuration.BARE_HW)
        assert model.vmm_cpu_for_event() == 0.0
        assert model.vmm_cpu_for_recording(100, 10000) == 0.0
        assert model.daemon_cpu_for_log(10000) == 0.0
        assert model.ack_generation_delay() == 0.0

    def test_nosig_has_no_crypto_cost(self):
        model = model_for(Configuration.AVMM_NOSIG)
        assert model.daemon_cpu_for_signatures(10, 10) == 0.0
        rsa = model_for(Configuration.AVMM_RSA768)
        assert rsa.daemon_cpu_for_signatures(10, 10) > 0.0

    def test_with_scheme_sets_costs(self):
        params = CostParameters().with_scheme("rsa768")
        assert params.sign_seconds > 0
        assert params.signature_bytes == 96

    def test_for_flags_matches_for_config(self):
        by_flags = PerfModel.for_flags(virtualized=True, recording=True,
                                       tamper_evident=True, signature_scheme="rsa768")
        by_config = model_for(Configuration.AVMM_RSA768)
        assert by_flags.outgoing_packet_delay(60) == by_config.outgoing_packet_delay(60)


class TestFrameRateModel:
    def test_frame_rates_ordered_by_configuration(self, honest_session):
        # honest_session runs avmm-rsa768; its overhead must lower the frame
        # rate below the bare-hardware maximum.
        sample = honest_session.frame_rate("player1")
        bare_max = 1.0 / CostParameters().frame_cpu_seconds
        assert 0 < sample.frames_per_second < bare_max
        assert 0 < sample.game_thread_overhead_seconds < 0.5 * sample.duration_seconds

    def test_pinned_daemon_costs_frames(self, honest_session):
        normal = honest_session.frame_rate("player1")
        pinned = honest_session.frame_rate("player1", pinned_same_thread=True)
        assert pinned.frames_per_second < normal.frames_per_second

    def test_concurrent_audits_cost_frames_sublinearly(self, honest_session):
        f0 = honest_session.frame_rate("player1", concurrent_audits=0).frames_per_second
        f1 = honest_session.frame_rate("player1", concurrent_audits=1).frames_per_second
        f2 = honest_session.frame_rate("player1", concurrent_audits=2).frames_per_second
        assert f0 > f1 > f2
        assert (f0 - f1) < f0 * 0.5  # far less than losing half the machine

    def test_many_audits_degrade_towards_1_over_a(self, honest_session):
        few = honest_session.frame_rate("player1", concurrent_audits=3).frames_per_second
        many = honest_session.frame_rate("player1", concurrent_audits=6).frames_per_second
        assert many < few

    def test_invalid_duration_rejected(self, honest_session):
        with pytest.raises(ValueError):
            FrameRateModel().compute(honest_session.monitors["player1"], 0.0)


class TestCpuModel:
    def test_average_close_to_one_busy_hyperthread(self, honest_session):
        utilization = CpuModel().compute(honest_session.monitors["player1"],
                                         honest_session.settings.duration)
        assert 0.10 <= utilization.average <= 0.30
        assert len(utilization.per_hyperthread) == 8

    def test_daemon_hyperthread_stays_light(self, honest_session):
        utilization = CpuModel().compute(honest_session.monitors["player1"],
                                         honest_session.settings.duration)
        assert utilization.daemon_ht_utilization < 0.20

    def test_invalid_duration_rejected(self, honest_session):
        with pytest.raises(ValueError):
            CpuModel().compute(honest_session.monitors["player1"], -1.0)


class TestLatencyHelpers:
    def test_percentile_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == 2.5

    def test_percentile_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_recorder_tracks_round_trips(self):
        recorder = LatencyRecorder()
        recorder.note_sent("a", 1.0)
        recorder.note_sent("b", 2.0)
        recorder.note_received("a", 1.5)
        assert recorder.pending == 1
        assert recorder.rtts() == [0.5]

    def test_summary(self):
        summary = summarize_rtts([0.001, 0.002, 0.003])
        assert summary.median == 0.002
        assert summary.count == 3
        with pytest.raises(ValueError):
            summarize_rtts([])

    def test_duplicate_request_id_rejected(self):
        recorder = LatencyRecorder()
        recorder.note_sent("a", 1.0)
        with pytest.raises(DuplicateRequestError):
            recorder.note_sent("a", 2.0)
        # ...even after the first round trip completed: ids name one request.
        recorder.note_received("a", 1.5)
        with pytest.raises(DuplicateRequestError):
            recorder.note_sent("a", 3.0)

    def test_same_id_from_different_clients_is_distinct(self):
        recorder = LatencyRecorder()
        recorder.note_sent("a", 1.0, client="c1")
        recorder.note_sent("a", 2.0, client="c2")
        recorder.note_received("a", 1.5, client="c1")
        recorder.note_received("a", 2.25, client="c2")
        assert sorted(recorder.rtts()) == [0.25, 0.5]

    def test_unknown_receive_is_counted_not_dropped(self):
        recorder = LatencyRecorder()
        recorder.note_received("ghost", 1.0)
        assert recorder.unmatched_received == 1
        assert recorder.rtts() == []

    def test_summary_tail_percentiles(self):
        values = [i / 1000.0 for i in range(1, 1001)]
        summary = summarize_rtts(values)
        assert summary.p50 == summary.median
        assert summary.p50 <= summary.p95 <= summary.p99 <= summary.p999
        assert summary.p999 > summary.p99 > summary.p95
        single = summarize_rtts([0.004])
        assert single.p50 == single.p99 == single.p999 == 0.004

    def test_percentile_fraction_validated(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 1.1)


class TestLogStats:
    def test_growth_series(self, honest_session):
        growth = honest_session.log_growth["server"]
        assert len(growth.samples) >= 2
        assert growth.growth_rate_mb_per_minute() > 0
        rows = growth.as_rows()
        assert rows[0][0] <= rows[-1][0]

    def test_growth_series_empty(self):
        assert LogGrowthSeries(machine="x").growth_rate_mb_per_minute() == 0.0

    def test_content_breakdown_fractions_sum_to_one(self, honest_session):
        breakdown = log_content_breakdown(honest_session.monitors["server"].log,
                                          honest_session.settings.duration)
        total_fraction = sum(breakdown.fraction(c) for c in breakdown.bytes_by_category)
        assert total_fraction == pytest.approx(1.0)
        assert breakdown.total_bytes > 0
        assert 0 < breakdown.compressed_bytes < breakdown.total_bytes

    def test_timetracker_dominates_replay_stream(self, honest_session):
        # Figure 4: TimeTracker entries are the largest replay category.
        breakdown = log_content_breakdown(honest_session.monitors["player1"].log,
                                          honest_session.settings.duration)
        assert breakdown.fraction("timetracker") > breakdown.fraction("maclayer")
        assert breakdown.fraction("timetracker") > breakdown.fraction("other_replay")

    def test_compression_reduces_rate(self, honest_session):
        breakdown = log_content_breakdown(honest_session.monitors["server"].log,
                                          honest_session.settings.duration)
        assert breakdown.compressed_mb_per_minute() < breakdown.mb_per_minute()
