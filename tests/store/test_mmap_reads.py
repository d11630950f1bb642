"""Differential suite: mmap segment reads vs parsed-JSON reads.

The serving contract of the mmap path is byte-identity: every archive
query — point lookup, range scan, per-AS history, severity/country
indexes, anomaly reports — must return exactly the same canonical
JSON whichever representation (JSON document vs mapped segment)
currently backs the period.
These tests pin that across a seeded multi-period archive, including
after compaction, after fsck repair, and for pre-columns segments.
"""

import datetime as dt
import json

import pytest

from repro.core import Severity
from repro.store import ASNotFoundError, SurveyArchive
from repro.store.segments import SegmentReader, _TRAILER_LEN, _sha
from tests.store.conftest import make_ranking, make_survey
from tests.store.test_anomaly_artifacts import LINK, make_anomaly_payload

PERIODS = [
    ("2019-06", dt.datetime(2019, 6, 1),
     {100: Severity.SEVERE, 200: Severity.LOW, 300: Severity.NONE}),
    ("2019-09", dt.datetime(2019, 9, 1),
     {100: Severity.MILD, 300: Severity.NONE, 400: Severity.SEVERE}),
    ("2019-12", dt.datetime(2019, 12, 1),
     {100: Severity.NONE, 200: Severity.SEVERE, 300: Severity.LOW,
      400: Severity.MILD}),
    ("2020-03", dt.datetime(2020, 3, 1),
     {200: Severity.NONE, 400: Severity.SEVERE}),
]
ALL_ASNS = (100, 200, 300, 400, 999)
SEVERITIES = ("none", "low", "mild", "severe")


def seed_archive(root):
    archive = SurveyArchive(root)
    ranking = make_ranking()
    for name, start, classes in PERIODS:
        archive.ingest(
            make_survey(name, start, classes), ranking=ranking
        )
    archive.ingest_anomalies(
        "2019-06", make_anomaly_payload("2019-06")
    )
    archive.ingest_anomalies(
        "2019-09", make_anomaly_payload("2019-09")
    )
    return archive


def query_snapshot(archive):
    """Canonical JSON of every read query — the equivalence surface.

    Hot-path queries (history, severity, point lookups) run first so
    they exercise the columnar/segment readers before ``get_period``
    warms the payload cache and shadows them.
    """
    snap = {}
    snap["periods"] = archive.periods()
    for asn in ALL_ASNS:
        snap[f"history:{asn}"] = archive.history(asn)
    for name in archive.periods():
        snap[f"asns:{name}"] = archive.asns(name)
        snap[f"countries:{name}"] = archive.countries(name)
        snap[f"severe:{name}"] = archive.severe_asns(name)
        snap[f"reported:{name}"] = archive.reported_asns(name)
        for severity in SEVERITIES:
            snap[f"severity:{name}:{severity}"] = (
                archive.asns_with_severity(name, severity)
            )
        for country in archive.countries(name):
            snap[f"country:{name}:{country}"] = (
                archive.asns_in_country(name, country)
            )
        for asn in ALL_ASNS:
            try:
                snap[f"get:{name}:{asn}"] = archive.get(asn, name)
            except ASNotFoundError:
                snap[f"get:{name}:{asn}"] = None
    for name in archive.periods():
        snap[f"payload:{name}"] = archive.get_period(name)
    snap["scan"] = list(archive.scan())
    snap["scan:bounded"] = list(
        archive.scan(start="2019-08-01", end="2020-01-01")
    )
    names = archive.periods()
    if "2019-06" in names and "2019-09" in names:
        snap["deltas"] = archive.deltas_between("2019-06", "2019-09")
    snap["churn"] = archive.churn_deltas()
    snap["anomalies"] = {
        name: archive.get_anomalies(name)
        for name in archive.anomaly_periods()
    }
    snap["link_history"] = archive.link_history(LINK)
    return json.dumps(snap, sort_keys=True)


@pytest.fixture()
def baseline(tmp_path):
    """(root, snapshot) with every period still a JSON document."""
    root = tmp_path / "arc"
    archive = seed_archive(root)
    snapshot = query_snapshot(archive)
    archive.close()
    return root, snapshot


def strip_columns(path):
    """Rewrite a segment as if written before the columns section.

    Drops the ``columns`` footer key and re-seals the trailer; blob
    offsets are untouched, so the file reads exactly like an
    old-format segment (the orphaned column bytes are unreachable).
    """
    raw = path.read_bytes()
    trailer = raw[-_TRAILER_LEN:]
    footer_offset = int(trailer[:20])
    footer_length = int(trailer[20:40])
    footer = json.loads(raw[footer_offset:footer_offset + footer_length])
    assert footer.pop("columns", None) is not None
    from repro.parallel.cache import canonical_json

    footer_bytes = canonical_json(footer).encode("ascii")
    new_trailer = (
        f"{footer_offset:020d}{len(footer_bytes):020d}"
        f"{_sha(footer_bytes)}"
    ).encode("ascii")
    path.write_bytes(raw[:footer_offset] + footer_bytes + new_trailer)


class TestCompactedEquivalence:
    def test_mmap_reads_match_json_documents(self, baseline):
        root, expected = baseline
        with SurveyArchive(root) as archive:
            archive.compact()
            assert query_snapshot(archive) == expected
        # A fresh process over the compacted archive agrees too.
        with SurveyArchive(root) as fresh:
            assert query_snapshot(fresh) == expected
            for name, _, _ in PERIODS:
                assert fresh._reader(name).mapped

    def test_mixed_representation_matches(self, baseline):
        root, expected = baseline
        with SurveyArchive(root) as archive:
            archive.compact(names=["2019-09", "2020-03"])
            assert query_snapshot(archive) == expected
        with SurveyArchive(root) as fresh:
            assert query_snapshot(fresh) == expected

    def test_segment_without_columns_matches(self, baseline):
        root, expected = baseline
        with SurveyArchive(root) as archive:
            archive.compact()
        for name, _, _ in PERIODS:
            strip_columns(root / "segments" / f"{name}.seg")
        with SurveyArchive(root) as archive:
            for name, _, _ in PERIODS:
                reader = archive._reader(name)
                assert not reader.has_columns()
                assert reader.columns() is None
                assert reader.column_entry(100) is None
            assert query_snapshot(archive) == expected

    def test_post_fsck_repair_matches(self, baseline):
        root, expected = baseline
        with SurveyArchive(root) as archive:
            archive.compact()
            report = archive.fsck(repair=True)
            assert report.clean
            assert query_snapshot(archive) == expected
        with SurveyArchive(root) as archive:
            assert query_snapshot(archive) == expected

    def test_fsck_repair_of_torn_segment_keeps_modes_agreeing(
        self, baseline
    ):
        """The archive that ran the repair and a fresh open of the
        repaired archive serve the same bytes."""
        root, _ = baseline
        with SurveyArchive(root) as archive:
            archive.compact()
        seg = root / "segments" / "2019-09.seg"
        raw = bytearray(seg.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        seg.write_bytes(raw)
        with SurveyArchive(root) as archive:
            report = archive.fsck(repair=True)
            assert report.repair_count >= 1
            assert "2019-09" not in archive.periods()
            repaired = query_snapshot(archive)
        with SurveyArchive(root) as archive:
            assert query_snapshot(archive) == repaired


class TestColumnIntegrity:
    def make_segment(self, tmp_path):
        root = tmp_path / "arc"
        archive = seed_archive(root)
        archive.compact()
        archive.close()
        return root / "segments" / "2019-06.seg"

    def test_column_entry_values(self, tmp_path):
        path = self.make_segment(tmp_path)
        with SegmentReader(path) as reader:
            assert reader.mapped
            entry = reader.column_entry(100)
            assert entry == {
                "severity": "severe", "probe_count": 5,
                "daily_amplitude_ms": 4.5,
            }
            assert reader.column_entry(999) is None
            assert reader.asns_with_severity("low") == [200]
            assert reader.asns_with_severity("nonesuch") == []
            assert reader.reported_asns() == [100, 200]

    def test_corrupt_columns_fail_checksum(self, tmp_path):
        from repro.store import ArchiveCorruptionError

        path = self.make_segment(tmp_path)
        with SegmentReader(path) as probe:
            meta = probe._footer["columns"]
        raw = bytearray(path.read_bytes())
        raw[int(meta["offset"])] ^= 0xFF
        path.write_bytes(raw)
        # The torn byte sits between the blobs and the footer, so the
        # segment still opens and point lookups still verify...
        with SegmentReader(path) as reader:
            assert reader.get(100) is not None
            # ...but the columns section refuses to serve.
            with pytest.raises(ArchiveCorruptionError):
                reader.columns()

    def test_close_tolerates_outstanding_views(self, tmp_path):
        path = self.make_segment(tmp_path)
        reader = SegmentReader(path)
        columns = reader.columns()
        held = columns["asn"]
        reader.close()  # must not raise despite the live view
        assert held[0] == 100


class TestFallback:
    def test_torn_segment_serves_json_and_counts(
        self, baseline
    ):
        from repro.obs import Observability, observed

        root, expected = baseline
        with SurveyArchive(root) as archive:
            archive.compact(keep_json=True)
        seg = root / "segments" / "2019-09.seg"
        raw = bytearray(seg.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        seg.write_bytes(raw)
        with observed(Observability()) as obs:
            with SurveyArchive(root) as archive:
                generation = archive.generation
                assert query_snapshot(archive) == expected
                assert archive.generation > generation
        assert obs.metrics.counter(
            "store_fallback_total", ""
        ).value() >= 1
        # The torn segment is evidence now, not a serving source.
        assert not seg.exists()
        assert (root / "quarantine" / "2019-09.seg").exists()

    def test_unmappable_segment_quarantined(self, baseline):
        """A zero-length segment cannot be mapped: it is corrupt, so
        it is quarantined and the JSON document serves instead."""
        from repro.store import ArchiveCorruptionError

        root, expected = baseline
        with SurveyArchive(root) as archive:
            archive.compact(keep_json=True)
        seg = root / "segments" / "2019-09.seg"
        seg.write_bytes(b"")
        with pytest.raises(ArchiveCorruptionError):
            SegmentReader(seg)
        with SurveyArchive(root) as archive:
            assert query_snapshot(archive) == expected
        assert not seg.exists()
        assert (root / "quarantine" / "2019-09.seg").exists()

    def test_point_lookup_falls_back(self, baseline):
        root, _ = baseline
        with SurveyArchive(root) as archive:
            archive.compact(keep_json=True)
            want = archive.get_period("2019-06")["reports"]["100"]
        seg = root / "segments" / "2019-06.seg"
        raw = bytearray(seg.read_bytes())
        raw[len(raw) // 3] ^= 0xFF
        seg.write_bytes(raw)
        with SurveyArchive(root) as archive:
            assert archive.get(100, "2019-06") == want

    def test_no_json_left_still_raises(self, baseline):
        from repro.store import ArchiveCorruptionError

        root, _ = baseline
        with SurveyArchive(root) as archive:
            archive.compact()  # keep_json=False: segment is the only copy
        seg = root / "segments" / "2019-06.seg"
        raw = bytearray(seg.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        seg.write_bytes(raw)
        with SurveyArchive(root) as archive:
            with pytest.raises(ArchiveCorruptionError):
                archive.get_period("2019-06")

