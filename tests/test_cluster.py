"""Tests for the multi-process scale-out layer (repro.cluster)."""

import json
from dataclasses import replace

import pytest

from repro import obs
from repro.cluster import (
    ClusterError,
    ClusterSpec,
    cell_name,
    run_cluster,
    stable_seed,
    sweep_specs,
)
from repro.cluster.spec import COORD
from repro.e2.batch import (
    BatchedUplinkChannel,
    E2BatchError,
    decode_batch_entry,
    encode_batch_entry,
    iter_batch_frame,
)
from repro.netio.batching import (
    BatchSender,
    encode_span_blob,
    pack_range_batch,
)
from repro.netio.bus import InProcNetwork

#: small enough for CI, big enough to cross several KPM/flush periods
QUICK = ClusterSpec(workers=2, cells=4, ues=8, slots=60, mode="inline")


@pytest.fixture(autouse=True)
def _clean_telemetry():
    yield
    obs.reset()
    obs.disable()


class TestSpec:
    def test_round_robin_partition_is_exact(self):
        spec = ClusterSpec(workers=3, cells=8)
        shards = [spec.cells_for_worker(k) for k in range(3)]
        flat = sorted(g for shard in shards for g in shard)
        assert flat == list(range(8))  # every cell exactly once
        assert shards[0] == [0, 3, 6]

    def test_ue_distribution_sums_to_total(self):
        spec = ClusterSpec(cells=3, ues=10)
        per_cell = [spec.ues_for_cell(g) for g in range(3)]
        assert sum(per_cell) == 10
        assert max(per_cell) - min(per_cell) <= 1

    def test_json_roundtrip(self):
        spec = ClusterSpec(workers=4, chaos="seed=1,trap=0.01")
        again = ClusterSpec.from_json(spec.to_json())
        assert again == spec

    def test_from_json_ignores_unknown_keys(self):
        doc = ClusterSpec().to_json()
        doc["from_the_future"] = 1
        assert ClusterSpec.from_json(doc) == ClusterSpec()

    def test_validate(self):
        with pytest.raises(ValueError):
            ClusterSpec(workers=0).validate()
        with pytest.raises(ValueError):
            ClusterSpec(mode="threads").validate()
        with pytest.raises(ValueError):
            ClusterSpec(flush_every=0).validate()

    def test_stable_seed_is_process_independent(self):
        assert stable_seed(0, "ch", 2, 5) == stable_seed(0, "ch", 2, 5)
        assert stable_seed(0, "ch", 2, 5) != stable_seed(0, "ch", 2, 6)
        assert stable_seed(1) == 7748076420210162913  # pinned: sha256-derived


class TestE2Batch:
    def test_entry_roundtrip(self):
        entry = encode_batch_entry("cell3", b"\x01\x02\x03")
        assert decode_batch_entry(entry) == ("cell3", b"\x01\x02\x03")

    def test_iter_batch_frame(self):
        frame = pack_range_batch(
            [encode_batch_entry("a", b"x"), encode_batch_entry("b", b"y")],
            0, 3, worker=0,
        )
        assert list(iter_batch_frame(frame)) == [("a", b"x"), ("b", b"y")]

    def test_malformed_entry_rejected(self):
        with pytest.raises(E2BatchError):
            decode_batch_entry(b"\x05\x00ab")  # node id overruns
        with pytest.raises(E2BatchError):
            decode_batch_entry(b"\x01")
        with pytest.raises(E2BatchError):
            decode_batch_entry(b"\x02\x00\xff\xfe")  # node id is not utf-8

    def test_uplink_channel_counts_backpressure(self):
        from repro.e2 import vendors
        from repro.e2.messages import indication

        net = InProcNetwork()
        net.endpoint(COORD)
        sender = BatchSender(net.endpoint("w"), COORD, max_queue=2)
        channel = BatchedUplinkChannel("cell0", vendors.vendor_b(), sender)
        message = indication(1, 0, [], [])
        for _ in range(5):
            channel.send(COORD, message)
        assert channel.sent == 2
        assert channel.dropped == 3
        assert channel.poll() == []  # one-directional uplink


class TestIngest:
    """The coordinator's demux survives damaged frames (its drain thread
    must never die on input from the wire)."""

    ENTRIES = [
        encode_batch_entry("cell0", b"kpm0"),
        encode_batch_entry("cell1", b"kpm1"),
    ]

    def coordinator(self):
        from repro.cluster.coordinator import ClusterCoordinator

        coord = ClusterCoordinator(replace(QUICK, trace=True))
        coord._build_ric()
        return coord

    def test_corrupt_span_blob_counts_but_entries_still_ingest(self):
        blob = encode_span_blob([{"name": "worker.slot", "slot": 3}])
        frame = bytearray(
            pack_range_batch(self.ENTRIES, 0, 3, worker=1, spans_blob=blob)
        )
        frame[28 + len(blob) // 2] ^= 0xFF  # inside the deflate stream
        coord = self.coordinator()
        coord._ingest_frame(bytes(frame))
        assert coord._ingest_failures == 1
        assert coord._messages_ingested == 2
        assert coord._progress == {1: 3}  # the header still heartbeats
        assert coord._streamed.get(1, []) == []

    def test_intact_frame_ingests_clean(self):
        blob = encode_span_blob([{"name": "worker.slot", "slot": 3}])
        coord = self.coordinator()
        coord._ingest_frame(
            pack_range_batch(self.ENTRIES, 0, 3, worker=1, spans_blob=blob)
        )
        assert coord._ingest_failures == 0
        assert coord._messages_ingested == 2
        assert coord._streamed[1] == [{"name": "worker.slot", "slot": 3}]

    def test_damaged_header_or_entries_count_as_failures(self):
        frame = pack_range_batch(self.ENTRIES, 0, 3, worker=1)
        coord = self.coordinator()
        coord._ingest_frame(frame[:20])  # magic but no whole header
        coord._ingest_frame(frame[:-2])  # last entry overruns
        coord._ingest_frame(
            pack_range_batch([encode_batch_entry("ghost", b"x")], 4, 7, 1)
        )
        assert coord._ingest_failures == 3
        assert coord._messages_ingested == 0


class TestInlineCluster:
    def test_aggregate_invariant_under_worker_count(self):
        one = run_cluster(replace(QUICK, workers=1))
        two = run_cluster(replace(QUICK, workers=2))
        four = run_cluster(replace(QUICK, workers=4))
        assert one.bytes_digest == two.bytes_digest == four.bytes_digest
        assert one.fault_digest == two.fault_digest == four.fault_digest
        assert one.delivered_bytes == two.delivered_bytes

    def test_report_contents(self):
        report = run_cluster(QUICK)
        assert set(report.bytes_by_cell) == {cell_name(g) for g in range(4)}
        assert report.delivered_bytes == sum(report.bytes_by_cell.values())
        assert report.indications_sent > 0
        assert report.indications_seen == report.indications_sent
        assert report.indications_dropped == 0
        assert report.indications_by_node  # RIC aggregated per node
        assert report.xapp_calls > 0
        assert report.controls_captured  # open-loop actions were captured
        assert report.uplink["batches_sent"] > 0
        assert report.max_worker_seconds > 0
        doc = report.to_json()
        json.dumps(doc)  # fully serialisable
        assert doc["bytes_digest"] == report.bytes_digest

    def test_cluster_metrics_exported(self):
        report = run_cluster(QUICK)
        metrics = report.metrics
        assert metrics["waran_cluster_cells"]["series"]
        offered = metrics["waran_cluster_uplink_offered_total"]["series"]
        assert {e["labels"]["worker"] for e in offered} == {"0", "1"}
        assert metrics["waran_cluster_ingested_messages_total"]["series"][0][
            "value"
        ] == report.indications_seen
        # worker histograms merge (exactly, by bucket) into one exposition
        slot_us = metrics["waran_cluster_slot_us"]["series"]
        assert sum(e["count"] for e in slot_us) == QUICK.slots * QUICK.workers
        # the RIC's own metrics ride along in the coordinator snapshot
        assert metrics["waran_ric_indications_total"]["series"]

    def test_chaos_composes_and_stays_invariant(self):
        spec = replace(QUICK, slots=80, chaos="seed=5,trap=0.05,fuel_cut=0.02")
        one = run_cluster(replace(spec, workers=1))
        two = run_cluster(replace(spec, workers=2))
        assert one.fault_digest == two.fault_digest
        assert one.bytes_digest == two.bytes_digest
        assert "trap" in one.fault_log or "fuel_cut" in one.fault_log

    def test_engine_selection(self):
        legacy = run_cluster(replace(QUICK, slots=20, engine="legacy"))
        assert legacy.engine == "legacy"

    def test_backpressure_surfaces_in_report(self):
        """A tiny queue with rare flushes must drop - and say so."""
        spec = replace(
            QUICK, workers=1, queue_limit=1, flush_every=1000, kpm_period=1
        )
        report = run_cluster(spec)
        assert report.indications_dropped > 0
        assert report.uplink["dropped"] > 0
        dropped = report.metrics["waran_cluster_uplink_dropped_total"]["series"]
        assert sum(e["value"] for e in dropped) == report.uplink["dropped"]
        # determinism of the *aggregate* physics is untouched by drops
        assert report.bytes_digest == run_cluster(spec).bytes_digest


class TestProcCluster:
    def test_proc_matches_inline(self):
        spec = replace(QUICK, slots=40, ues=4, timeout_s=120)
        inline = run_cluster(spec)
        proc = run_cluster(replace(spec, mode="proc"))
        assert proc.bytes_digest == inline.bytes_digest
        assert proc.fault_digest == inline.fault_digest
        assert proc.indications_seen == inline.indications_seen

    def test_worker_failure_is_surfaced(self):
        spec = replace(
            QUICK, mode="proc", slots=10, chaos="bogus-key=1", timeout_s=60
        )
        with pytest.raises((ClusterError, ValueError)):
            run_cluster(spec)


class TestLoadgen:
    def test_sweep_specs_grid(self):
        base = ClusterSpec(cells=2, ues=4, slots=10)
        specs = list(sweep_specs(base, workers=(1, 2, 4), cells=(2,)))
        assert [s.workers for s in specs] == [1, 2]  # 4 > cells skipped
        assert all(s.cells == 2 for s in specs)

    def test_run_sweep_checks_invariance(self):
        from repro.cluster import run_sweep

        base = replace(QUICK, ues=4, slots=30)
        reports = run_sweep(base, workers=(1, 2))
        assert len(reports) == 2
        assert reports[0].bytes_digest == reports[1].bytes_digest


class TestScaleCli:
    def test_scale_inline_with_json(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "report.json"
        code = main(
            ["scale", "--workers", "2", "--cells", "2", "--ues", "4",
             "--slots", "30", "--mode", "inline", "--json", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["spec"]["workers"] == 2
        assert doc["delivered_bytes"] > 0
        assert "cluster workers=2" in capsys.readouterr().out

    def test_scale_sweep_and_metrics(self, capsys):
        from repro.cli import main

        code = main(
            ["scale", "--cells", "2", "--ues", "4", "--slots", "30",
             "--mode", "inline", "--sweep", "1,2", "--metrics"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "invariant across worker counts" in out
        assert "waran_cluster_slot_us" in out

    def test_scale_rejects_bad_spec(self, capsys):
        from repro.cli import main

        assert main(["scale", "--workers", "0"]) == 1
        assert "error" in capsys.readouterr().err

    #: the cluster-shape and engine flags scale and trace share
    SHARED = {"--workers", "--cells", "--ues", "--slots", "--seed", "--mode",
              "--timeout", "--engine"}

    @pytest.mark.parametrize(
        "command, own",
        [
            ("scale", {"--chaos", "--sweep", "--verify-determinism", "--json",
                       "--metrics", "--rt", "--scenario",
                       "--liveness-timeout"}),
            ("trace", {"--budget-us", "--out", "--json", "--tree",
                       "--digest-only"}),
        ],
    )
    def test_help_lists_the_shared_and_own_flags(self, command, own, capsys):
        import re

        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == self.SHARED | own | {"--help"}

    @pytest.mark.parametrize("command", ["scale", "trace"])
    def test_transport_flag_is_an_error_not_a_noop(self, command, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([command, "--mode", "inline", "--transport", "tcp"])
        assert exit_info.value.code == 2
        assert "--transport" in capsys.readouterr().err

    def test_per_command_slot_defaults_survive_the_shared_parent(
        self, monkeypatch
    ):
        from repro import cli

        seen = {}
        monkeypatch.setattr(
            cli, "_cmd_scale", lambda args: seen.update(scale=args.slots) or 0
        )
        monkeypatch.setattr(
            cli, "_cmd_trace", lambda args: seen.update(trace=args.slots) or 0
        )
        assert cli.main(["scale"]) == 0 and cli.main(["trace"]) == 0
        assert seen == {"scale": 400, "trace": 200}
