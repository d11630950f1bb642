"""Serving over mmap-backed segments: concurrency, staleness, tears.

The serving layer's contract does not change when the archive flips
periods from JSON documents to mapped segments: identical bytes and
ETags, coherent responses while a re-ingest bumps the generation
mid-flight, and a torn segment degrading to the JSON document (with
``store_fallback_total`` booked) instead of a 500.
"""

import datetime as dt
import json
import threading

from repro.core import Severity
from repro.obs import Observability, observed
from repro.serve import SurveyAPI
from repro.store import SurveyArchive
from tests.store.conftest import make_ranking, make_survey

THREADS = 8
ROUNDS = 25

HOT_PATHS = (
    "/v1/as/100/history",
    "/v1/as/400/history",
    "/v1/as/100?period=2019-06",
    "/v1/period/2019-09/severity/severe",
    "/v1/period/2019-09/severity/none",
    "/v1/period/2019-06/severe",
    "/v1/period/2019-06",
)


def build_archive(root, ranking=None):
    """The conftest two-period archive, buildable at any path."""
    archive = SurveyArchive(root)
    ranking = ranking if ranking is not None else make_ranking()
    archive.ingest(
        make_survey("2019-06", dt.datetime(2019, 6, 1), {
            100: Severity.SEVERE, 200: Severity.LOW,
            300: Severity.NONE,
        }),
        ranking=ranking,
    )
    archive.ingest(
        make_survey("2019-09", dt.datetime(2019, 9, 1), {
            100: Severity.MILD, 300: Severity.NONE,
            400: Severity.SEVERE,
        }),
        ranking=ranking,
    )
    return archive


def serve_all(api, paths=HOT_PATHS):
    return {
        path: (response.status, response.body, response.etag)
        for path, response in (
            (path, api.handle(path)) for path in paths
        )
    }


class TestConcurrentMmapReads:
    def test_eight_threads_byte_identical(self, tmp_path):
        with build_archive(tmp_path / "arc") as archive:
            archive.compact()
            api = SurveyAPI(archive, cache_size=8)
            expected = serve_all(api)
            assert all(
                status == 200 for status, _, _ in expected.values()
            )

            results = [[] for _ in range(THREADS)]
            errors = []
            barrier = threading.Barrier(THREADS)

            def reader(slot):
                try:
                    barrier.wait()
                    for _ in range(ROUNDS):
                        results[slot].append(serve_all(api))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            for slot_results in results:
                assert len(slot_results) == ROUNDS
                for observed_pages in slot_results:
                    assert observed_pages == expected

    def test_generation_bump_mid_flight(self, tmp_path):
        ranking = make_ranking()
        with build_archive(tmp_path / "arc", ranking) as archive:
            archive.compact()
            api = SurveyAPI(archive, cache_size=8)
            path = "/v1/as/400/history"
            first = api.handle(path)
            before = (first.status, first.body, first.etag)

            seen = [[] for _ in range(THREADS)]
            errors = []
            barrier = threading.Barrier(THREADS + 1)
            ingested = threading.Event()

            def reader(slot):
                try:
                    barrier.wait()
                    while not ingested.is_set():
                        response = api.handle(path)
                        seen[slot].append((
                            response.status, response.body,
                            response.etag,
                        ))
                    # Tail reads start strictly after the commit:
                    # stale bytes here would be a coherence bug.
                    for _ in range(3):
                        response = api.handle(path)
                        seen[slot].append((
                            response.status, response.body,
                            response.etag,
                        ))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(THREADS)
            ]
            for thread in threads:
                thread.start()
            barrier.wait()
            # Re-ingest mid-flight: a third period lands and the
            # archive generation bumps while readers are in the maps.
            archive.ingest(
                make_survey("2019-12", dt.datetime(2019, 12, 1), {
                    100: Severity.LOW, 400: Severity.MILD,
                }),
                ranking=ranking,
            )
            after_response = api.handle(path)
            ingested.set()
            for thread in threads:
                thread.join()
            assert not errors

            after = (
                after_response.status, after_response.body,
                after_response.etag,
            )
            # The new period is visible and the ETag rolled.
            assert after[0] == 200
            assert before[1] != after[1]
            assert before[2] != after[2]
            periods = [
                entry["period"]
                for entry in json.loads(after[1])["history"]
            ]
            assert "2019-12" in periods
            # Every observation is one of the two committed renders —
            # never a torn mixture, never stale bytes after the bump.
            for slot_observations in seen:
                for observation in slot_observations:
                    assert observation in (before, after)
                assert slot_observations[-1] == after

    def test_mmap_and_json_modes_serve_identical_bytes(self, tmp_path):
        with build_archive(tmp_path / "mapped") as archive:
            archive.compact()
            mapped = serve_all(SurveyAPI(archive, cache_size=8))
        with build_archive(tmp_path / "documents") as archive:
            documents = serve_all(SurveyAPI(archive, cache_size=8))
        assert mapped == documents


class TestTornSegmentServing:
    def test_torn_segment_falls_back_not_500(self, tmp_path):
        with build_archive(tmp_path / "pristine") as archive:
            expected = serve_all(SurveyAPI(archive, cache_size=8))

        root = tmp_path / "arc"
        with build_archive(root) as archive:
            archive.compact(keep_json=True)
        seg = root / "segments" / "2019-06.seg"
        raw = bytearray(seg.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        seg.write_bytes(raw)

        with observed(Observability()) as obs:
            with SurveyArchive(root) as archive:
                api = SurveyAPI(archive, cache_size=8)
                served = serve_all(api)
        for path, (status, body, etag) in served.items():
            assert status < 500, path
        # Byte-identical to a never-compacted archive's serving.
        assert served == expected
        assert obs.metrics.counter(
            "store_fallback_total", ""
        ).value() >= 1

    def test_torn_segment_under_concurrency(self, tmp_path):
        root = tmp_path / "arc"
        with build_archive(root) as archive:
            archive.compact(keep_json=True)
        for name in ("2019-06", "2019-09"):
            seg = root / "segments" / f"{name}.seg"
            raw = bytearray(seg.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            seg.write_bytes(raw)

        with observed(Observability()) as obs:
            with SurveyArchive(root) as archive:
                api = SurveyAPI(archive, cache_size=8)
                statuses = []
                errors = []
                barrier = threading.Barrier(THREADS)

                def reader():
                    try:
                        barrier.wait()
                        for _ in range(ROUNDS):
                            for path in HOT_PATHS:
                                statuses.append(
                                    api.handle(path).status
                                )
                    except Exception as exc:  # pragma: no cover
                        errors.append(exc)

                threads = [
                    threading.Thread(target=reader)
                    for _ in range(THREADS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
        assert not errors
        assert statuses and all(
            status < 500 for status in statuses
        )
        assert obs.metrics.counter(
            "store_fallback_total", ""
        ).value() >= 1
