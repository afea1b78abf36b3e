"""The experiment harness and every table/figure runner, with its asserts.

Each experiment is run at a much smaller scale than the paper's (seconds of
simulated time instead of half-hour games) — enough to exercise the full code
path and check that the *shape* of the result matches the paper's claims.
``python -m repro.experiments.<x>`` prints an artefact's numbers; the
slow-marked tests here (``python -m pytest -q -m slow``) are where every
shape the paper claims for it is asserted.  The unmarked ones are the fast
stage's smaller runs of the same paths.
"""

import pytest

from repro.audit.online import OnlineAuditor
from repro.audit.verdict import Verdict
from repro.avmm.config import Configuration
from repro.experiments import fig3_log_growth, fig4_log_content, fig5_latency
from repro.experiments import fig7_frame_rate, fig8_online_audit, fig9_spot_check
from repro.experiments import fig6_cpu, sec65_frame_cap, sec66_audit_cost, sec67_traffic
from repro.experiments import table1
from repro.game.cheats.catalog import catalog_summary
from repro.experiments.harness import format_table
from repro.game.cheats.implementations import AimbotCheat, UnlimitedAmmoCheat


class TestHarness:
    def test_format_table(self):
        text = format_table(["a", "bb"], [[1, 2], [30, 4]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "30" in lines[3]

    def test_session_reference_vs_installed_images(self, cheater_session):
        assert cheater_session.installed_images["player1"] is not \
            cheater_session.reference_images["player1"]
        assert cheater_session.installed_images["player2"] is \
            cheater_session.reference_images["player2"]

    def test_session_traffic_accounting(self, honest_session):
        stats = honest_session.network.stats_for("server")
        assert stats.sent_kbps(honest_session.settings.duration) > 0


class TestTable1:
    def test_catalog_summary(self):
        summary = catalog_summary()
        assert summary.total == 26
        assert summary.detectable == 26

    @pytest.mark.slow
    def test_catalog_and_functional_checks(self):
        # Section 6.3: a cheated game is audited and the cheater is caught,
        # while every honest player's audit passes
        summary = catalog_summary()
        assert summary.total == 26
        assert summary.detectable == 26
        assert summary.not_detectable == 0
        checks = [table1.run_functional_check(cheat, duration=6.0)
                  for cheat in (UnlimitedAmmoCheat(), AimbotCheat())]
        assert all(check.cheater_detected and check.honest_players_passed
                   for check in checks)


class TestFigure3And4:
    @pytest.mark.slow
    def test_log_growth_shape(self):
        result = fig3_log_growth.run_log_growth(duration=20.0)
        assert result.avmm_mb_per_minute > result.vmware_mb_per_minute > 0
        assert result.avmm_series[-1][1] > result.avmm_series[0][1]

    @pytest.mark.slow
    def test_log_content_shape(self):
        result = fig4_log_content.run_log_content(duration=20.0)
        assert result.replay_fraction > 0.5
        assert result.compressed_mb_per_minute < 0.7 * result.total_mb_per_minute
        # TimeTracker entries are the single largest category (Figure 4).
        assert result.breakdown.fraction("timetracker") == max(
            result.breakdown.fraction(c) for c in result.breakdown.bytes_by_category)


def _median_ms(result, configuration):
    return result.summaries[configuration].median * 1000.0


class TestFigure5:
    @pytest.mark.parametrize("pings", [10, pytest.param(40, marks=pytest.mark.slow)])
    def test_latency_shape(self, pings):
        # monotone across the configurations, ~0.2 ms bare hardware, a few
        # ms for the full system (signatures dominate)
        result = fig5_latency.run_latency(pings=pings)
        medians = [result.summaries[c].median for c in Configuration]
        assert medians == sorted(medians)
        assert _median_ms(result, Configuration.BARE_HW) < 0.5
        assert _median_ms(result, Configuration.AVMM_NOSIG) > 1.0
        assert 2.0 < _median_ms(result, Configuration.AVMM_RSA768) < 20.0


class TestFigure6And7:
    # a shorter game in the fast stage; the census run's eight seconds in the
    # slow one
    @pytest.fixture(scope="class", params=[4.0, pytest.param(8.0, marks=pytest.mark.slow)])
    def frame_rate_result(self, request):
        return fig7_frame_rate.run_frame_rate(duration=request.param)

    def test_frame_rate_ordering(self, frame_rate_result):
        fps = [frame_rate_result.average_fps(c) for c in (
            Configuration.BARE_HW, Configuration.VMWARE_REC, Configuration.AVMM_RSA768)]
        assert fps[0] > fps[1] >= fps[2]
        assert fps[0] > 150  # paper: ~158 fps on bare hardware

    def test_total_drop_in_paper_ballpark(self, frame_rate_result):
        drop = frame_rate_result.relative_drop(Configuration.AVMM_RSA768)
        assert 0.05 < drop < 0.30  # paper: ~13 %

    def test_recording_is_the_biggest_single_step(self, frame_rate_result):
        norec = frame_rate_result.average_fps(Configuration.VMWARE_NOREC)
        rec = frame_rate_result.average_fps(Configuration.VMWARE_REC)
        avmm = frame_rate_result.average_fps(Configuration.AVMM_RSA768)
        assert (norec - rec) > (rec - avmm)

    def test_pinned_ablation_costs_frames(self, frame_rate_result):
        assert frame_rate_result.pinned_sample.frames_per_second < \
            frame_rate_result.average_fps(Configuration.AVMM_RSA768)

    @pytest.mark.slow
    def test_cpu_utilisation_shape(self):
        result = fig6_cpu.run_cpu(duration=8.0)
        assert set(result.utilizations) == set(Configuration)
        for utilization in result.utilizations.values():
            assert 0.10 < utilization.average < 0.30
        avmm = result.utilizations[Configuration.AVMM_RSA768]
        assert avmm.daemon_ht_utilization < 0.20


class TestFigure8:
    @pytest.mark.slow
    def test_online_audit_detects_cheat_and_costs_frames(self):
        result = fig8_online_audit.run_online_audit(duration=20.0)
        fps = result.fps_by_audit_count
        assert fps[0] > fps[1] > fps[2]
        assert (fps[0] - fps[2]) < 0.5 * fps[0]
        assert result.detection_time is not None
        assert result.detection_time <= 20.0

    def test_online_auditor_passes_honest_machine(self, honest_session):
        target = "player2"
        peers = [monitor for name, monitor in honest_session.monitors.items()
                 if name != target]
        online = OnlineAuditor(honest_session.make_auditor("player1", target),
                               honest_session.monitors[target],
                               honest_session.scheduler, peers, interval=5.0)
        record = online.run_once()
        assert record is not None
        assert record.verdict is Verdict.PASS
        assert not online.fault_detected
        assert online.audit_cpu_seconds > 0


class TestFigure9:
    @pytest.mark.slow
    def test_spot_check_costs_scale_with_k(self, monkeypatch):
        # a snapshot every 10 s gives a 60 s run room for three values of k
        monkeypatch.setattr(fig9_spot_check, "SNAPSHOT_INTERVAL", 10.0)
        monkeypatch.setattr(fig9_spot_check, "K_VALUES", (1, 2, 3))
        result = fig9_spot_check.run_spot_check(duration=60.0)
        assert result.segments >= 4
        assert all(p.all_passed for p in result.points)
        fractions = [p.avg_time_fraction for p in result.points]
        data_fractions = [p.avg_data_fraction for p in result.points]
        assert fractions == sorted(fractions)
        assert data_fractions == sorted(data_fractions)
        # Fixed per-chunk cost: a 1-segment chunk still costs a visible fraction.
        assert result.points[0].avg_data_fraction > 0.0
        # The full-audit baseline's compressed download: what the v1 writer
        # stores for the log (235666 while ACK entries were logged at RECV
        # time and every ack was an envelope with an id of its own).
        assert [p.k for p in result.points] == [1, 2, 3]
        assert result.full_audit_bytes == 234286


class TestSection65:
    @pytest.mark.slow
    def test_frame_cap_inflates_log_and_optimisation_recovers(self):
        result = sec65_frame_cap.run_frame_cap(duration=3.0)
        assert result.cap_growth_factor > 5.0
        assert result.optimized_growth_factor < result.cap_growth_factor / 3.0
        assert result.optimized_growth_factor < 3.0


class TestSection66And67:
    @pytest.mark.slow
    def test_audit_cost_split(self):
        result = sec66_audit_cost.run_audit_cost(duration=10.0)
        assert result.audit_passed
        assert result.semantic_seconds > 10 * result.syntactic_seconds
        assert result.semantic_seconds > result.compression_seconds
        assert 0.5 < result.semantic_fraction_of_recording < 2.0
        # The raw size is the log's; the compressed size is what the v1
        # writer stores for it, for the three players the census run plays
        # ((319788, 57909) with two).
        assert (result.log_bytes, result.compressed_bytes) == (436694, 78754)

    @pytest.mark.slow
    def test_traffic_overhead(self):
        result = sec67_traffic.run_traffic(duration=10.0)
        assert result.overhead_factor > 1.5
        avmm = result.kbps_by_configuration[Configuration.AVMM_RSA768]
        assert avmm < 1000.0  # still far below broadband capacity
