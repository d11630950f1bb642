"""The tentpole determinism contract: anomaly reports are
byte-identical to the reference loops' output and across shard
counts.

The reference output of the simulated campaign (the session ``sim``
fixture) is pinned in ``tests/golden/differential_golden.json``; it
was produced while the reference loops were still a selectable
pipeline backend, after checking the vectorized backend agreed.
"""

import numpy as np
import pytest

from repro.anomaly import detect_anomalies, link_bin_medians, scan_links
from repro.parallel.cache import canonical_json
from tests.golden.regenerate import pinned_world


@pytest.fixture(scope="module")
def report_bytes(sim, grid):
    """Canonical report bytes per shard count, each detected once."""
    return {
        shards: canonical_json(detect_anomalies(
            sim[0].results, grid, period_name="simulated",
            shards=shards,
        ).payload)
        for shards in (1, 2, 3)
    }


def pinned_report_bytes():
    return canonical_json(pinned_world("anomaly-report"))


class TestByteIdentity:
    def test_reference_vs_vector(self, report_bytes):
        assert report_bytes[1] == pinned_report_bytes()

    def test_serial_vs_sharded(self, report_bytes):
        for shards in (2, 3):
            assert report_bytes[shards] == report_bytes[1]

    def test_sharded_vector_vs_serial_reference(self, report_bytes):
        # The full cross: both axes at once.
        assert report_bytes[3] == pinned_report_bytes()


class TestKernelMedians:
    def test_backends_agree_exactly(self, sim, grid):
        """The production link medians equal the reference loops'
        pinned ones."""
        pinned = pinned_world("anomaly-link-medians")
        ids, medians, counts = link_bin_medians(
            scan_links(sim[0].results, grid)
        )
        assert ids == pinned["link_ids"]
        assert np.array_equal(counts, np.array(pinned["counts"]))
        assert np.array_equal(
            medians, np.array(pinned["medians"]), equal_nan=True
        )

    def test_min_samples_gate(self, sim, grid):
        scan = scan_links(sim[0].results, grid)
        _ids, medians, counts = link_bin_medians(
            scan, min_samples=10_000
        )
        assert np.all(np.isnan(medians))
        assert counts.sum() > 0
