"""Last-mile RTT estimation from traceroutes (paper §2.1).

Stages, exactly as the paper describes:

1. Identify the boundary: the last RFC 1918 (private) hop and the
   first public hop of each traceroute.
2. Pairwise-subtract the private hop's replies from the public hop's
   replies: 3 × 3 = 9 last-mile RTT samples per traceroute.
3. Group each probe's traceroutes into 30-minute bins; discard bins
   with fewer than 3 traceroutes (disconnected-probe sanity check).
4. Per bin, the probe's last-mile RTT estimate is the median of all
   samples in the bin (24 traceroutes × 9 samples = 216).

Anchors have no private hop; for them (used only by the Appendix B
control analysis) the first public hop RTT itself is the sample.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..netbase import is_private, is_public, parse_address
from ..atlas.traceroute import Hop, TracerouteResult
from ..obs import get_observer, maybe_profiled
from ..quality import DataQualityReport, DropReason
from ..timebase import TimeGrid
from .kernels import record_kernel_op
from .kernels.flat import scan_lastmile_flat
from .kernels.vector import dataset_bin_medians, flatten_samples
from .series import LastMileDataset, ProbeBinSeries

#: The paper's disconnected-probe sanity threshold.
MIN_TRACEROUTES_PER_BIN = 3

STAGE = "core-lastmile"


@dataclass(frozen=True)
class BoundaryHops:
    """The last private and first public hops of one traceroute.

    ``last_private`` is None for vantage points with no private hop
    (datacenter hosts / anchors).
    """

    last_private: Optional[Hop]
    first_public: Hop


def classify_hop_address(address: str) -> str:
    """Classify a hop address as 'private', 'public' or 'other'.

    'other' covers loopback, link-local, documentation and multicast
    space — anomalies that must be skipped rather than treated as the
    ISP edge.
    """
    try:
        value, version = parse_address(address)
    except ValueError:
        return "other"
    if is_private(value, version):
        return "private"
    if is_public(value, version):
        return "public"
    return "other"


def find_boundary(result: TracerouteResult) -> Optional[BoundaryHops]:
    """Locate the private→public boundary of one traceroute.

    Scans hops in order: remembers the most recent private hop, stops
    at the first public hop.  Hops whose replies all timed out (or are
    anomalous) are skipped.  Returns None when no public hop ever
    responds (fully broken traceroute).
    """
    last_private: Optional[Hop] = None
    for hop in result.hops:
        address = hop.responding_address
        if address is None:
            continue
        kind = classify_hop_address(address)
        if kind == "private":
            last_private = hop
        elif kind == "public":
            return BoundaryHops(last_private=last_private, first_public=hop)
    return None


@maybe_profiled("core-lastmile.lastmile_samples")
def lastmile_samples(result: TracerouteResult) -> List[float]:
    """Per-traceroute last-mile RTT samples (up to 9).

    Pairwise subtraction of the last private hop's RTTs from the first
    public hop's RTTs.  With no private hop the public hop's RTTs are
    used directly (anchor case).  Timeout replies simply yield fewer
    samples.

    Replies whose RTT is non-finite (NaN/inf from a corrupt record)
    or negative are discarded by the same sanity filter.  When *every*
    reply of the public hop — or, for non-anchors, of the private
    hop — is insane, the pairwise product is empty and the traceroute
    yields no samples at all, exactly like a traceroute whose boundary
    never responded; :func:`estimate_probe_series` then counts it
    toward bin sanity but flags it as degraded.
    """
    boundary = find_boundary(result)
    if boundary is None:
        return []
    public_rtts = [r for r in boundary.first_public.rtts if _sane(r)]
    if boundary.last_private is None:
        return list(public_rtts)
    private_rtts = [
        r for r in boundary.last_private.rtts if _sane(r)
    ]
    return [
        public_rtt - private_rtt
        for public_rtt in public_rtts
        for private_rtt in private_rtts
    ]


def _sane(rtt: float) -> bool:
    """Defense in depth against garbage RTTs that bypassed parsing."""
    return np.isfinite(rtt) and rtt >= 0.0


def e2e_samples(result: TracerouteResult) -> List[float]:
    """End-to-end RTT samples: the last responding hop's replies.

    Not part of the paper's methodology — used by the specificity
    experiments to contrast naive end-to-end delay analysis with the
    last-mile subtraction.
    """
    for hop in reversed(result.hops):
        rtts = hop.rtts
        if rtts:
            return list(rtts)
    return []


def _scan_results(
    results: Iterable[TracerouteResult],
    grid: TimeGrid,
    prb_id: Optional[int],
    sample_fn,
    quality: Optional[DataQualityReport],
    counts: np.ndarray,
) -> Tuple[Optional[int], int, List[int], List[List[float]]]:
    """Stages 1–3 for one probe: timestamp gating, binning, sampling.

    The scan for a caller-supplied ``sample_fn`` (e.g.
    :func:`e2e_samples`), and the model the streaming engine mirrors
    record by record: edge semantics (NaN timestamps, out-of-period
    clocks, sample-less traceroutes) are decided here.  The default
    last-mile sampling
    uses :func:`repro.core.kernels.flat.scan_lastmile_flat`, which
    replicates these semantics exactly (``tests/kernels`` proves the
    outputs and quality events byte-identical); any change here must
    be mirrored there.  Increments ``counts`` in place; returns
    ``(prb_id, processed, sample_bins, sample_lists)`` where
    ``sample_lists[i]`` is the non-empty sample list of the i-th
    sampled traceroute and ``sample_bins[i]`` its bin.
    """
    processed = 0
    duration = grid.num_bins * grid.bin_seconds
    sample_bins: List[int] = []
    sample_lists: List[List[float]] = []
    for result in results:
        processed += 1
        if prb_id is None:
            prb_id = result.prb_id
        if quality is not None:
            quality.ingest(STAGE)
        timestamp = result.timestamp
        if not np.isfinite(timestamp):
            # A NaN/inf timestamp cannot be binned at all: the record
            # is dropped as malformed *before* the bin sanity counts —
            # it neither helps a bin reach min_traceroutes nor is it
            # sampled.
            if quality is not None:
                quality.drop(
                    STAGE, DropReason.MALFORMED_RECORD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp!r}",
                )
            continue
        if timestamp < 0 or timestamp > duration:
            if quality is not None:
                quality.drop(
                    STAGE, DropReason.OUT_OF_PERIOD,
                    detail=f"probe {result.prb_id}: timestamp "
                    f"{timestamp:.0f}s outside 0..{duration}s",
                )
            continue
        bin_index = int(grid.bin_index(timestamp))
        counts[bin_index] += 1
        samples = sample_fn(result)
        if samples:
            sample_bins.append(bin_index)
            sample_lists.append(samples)
        elif quality is not None:
            # Boundary missing — or present with only insane replies
            # (see lastmile_samples): the traceroute counts toward bin
            # sanity (the probe *was* measuring) but contributes no
            # samples and is flagged.
            quality.degrade(
                STAGE, DropReason.NO_BOUNDARY,
                detail=f"probe {result.prb_id}: no usable "
                "private→public hop pair",
            )
    return prb_id, processed, sample_bins, sample_lists


def _scan_probe(
    results: Iterable[TracerouteResult],
    grid: TimeGrid,
    prb_id: Optional[int],
    sample_fn,
    quality: Optional[DataQualityReport],
    counts: np.ndarray,
) -> Tuple[Optional[int], int, np.ndarray, np.ndarray]:
    """Stages 1–3 for one probe as flat per-sample (bin, value) arrays.

    The default last-mile sampling runs the flat scan
    (:func:`~repro.core.kernels.flat.scan_lastmile_flat`); a
    caller-supplied ``sample_fn`` goes through :func:`_scan_results`.
    Both keep the same edge semantics and quality events.
    """
    if sample_fn is None:
        scan = scan_lastmile_flat(results, grid, prb_id, quality, counts)
        return (
            scan.prb_id, scan.processed,
            scan.sample_bins, scan.sample_values,
        )
    prb_id, processed, sample_bins, sample_lists = _scan_results(
        results, grid, prb_id, sample_fn, quality, counts
    )
    return (prb_id, processed) + flatten_samples(
        sample_bins, sample_lists
    )


def estimate_probe_series(
    results: Iterable[TracerouteResult],
    grid: TimeGrid,
    prb_id: Optional[int] = None,
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
    sample_fn=None,
    quality: Optional[DataQualityReport] = None,
) -> ProbeBinSeries:
    """Binned last-mile medians for one probe's traceroutes.

    Implements stages 1–4 above.  ``prb_id`` is inferred from the
    first result when not given; an empty input needs it explicitly.
    ``sample_fn`` swaps the per-traceroute sample extractor (default
    :func:`lastmile_samples`; pass :func:`e2e_samples` for a naive
    end-to-end analysis).

    Dirty-input behavior: results whose timestamp is non-finite are
    dropped as malformed before binning (they do not count toward bin
    sanity), results whose timestamp falls outside the grid's period
    (skewed probe clocks) are dropped, and results that yield no
    samples — no responding public hop, or a boundary whose replies
    are all non-finite — still count toward the bin's sanity count
    but are flagged; all three are recorded on ``quality`` when given.
    """
    obs = get_observer()
    counts = np.zeros(grid.num_bins, dtype=np.int64)
    prb_id, processed, sample_bins, sample_values = _scan_probe(
        results, grid, prb_id, sample_fn, quality, counts
    )
    if prb_id is None:
        raise ValueError("empty result set and no prb_id given")
    record_kernel_op("bin-medians")
    medians, valid_bins = dataset_bin_medians(
        sample_bins, sample_values, 1, grid.num_bins,
        counts[None, :], min_traceroutes,
    )
    obs.items_in(STAGE, processed)
    obs.items_out(STAGE, int(valid_bins[0]))
    return ProbeBinSeries(
        prb_id=prb_id,
        median_rtt_ms=medians[0],
        traceroute_counts=counts,
    )


def estimate_dataset(
    results_by_probe: Dict[int, List[TracerouteResult]],
    grid: TimeGrid,
    probe_meta: Optional[Dict[int, object]] = None,
    min_traceroutes: int = MIN_TRACEROUTES_PER_BIN,
    sample_fn=None,
    quality: Optional[DataQualityReport] = None,
) -> LastMileDataset:
    """Run the estimation for every probe of a measurement dataset.

    Each probe is scanned in turn (so quality accounting follows
    record order), then one grouped-median pass over flat
    ``(probe, bin, sample)`` arrays estimates every probe at once.
    """
    obs = get_observer()
    with obs.stage_span("lastmile", probes=len(results_by_probe)):
        dataset = LastMileDataset(grid=grid)
        order = list(results_by_probe.items())
        num_bins = grid.num_bins
        counts_matrix = np.zeros((len(order), num_bins), dtype=np.int64)
        processed_total = 0
        key_chunks: List[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        value_chunks: List[np.ndarray] = [np.zeros(0)]
        for row, (prb_id, results) in enumerate(order):
            _, processed, sample_bins, sample_values = _scan_probe(
                results, grid, prb_id, sample_fn, quality,
                counts_matrix[row],
            )
            processed_total += processed
            key_chunks.append(row * num_bins + sample_bins)
            value_chunks.append(sample_values)
        record_kernel_op("dataset-bin-medians")
        medians, valid_per_probe = dataset_bin_medians(
            np.concatenate(key_chunks), np.concatenate(value_chunks),
            len(order), num_bins, counts_matrix, min_traceroutes,
        )
        obs.items_in(STAGE, processed_total)
        obs.items_out(STAGE, int(valid_per_probe.sum()))
        for row, (prb_id, _results) in enumerate(order):
            series = ProbeBinSeries(
                prb_id=prb_id,
                median_rtt_ms=medians[row],
                traceroute_counts=counts_matrix[row],
            )
            meta = probe_meta.get(prb_id) if probe_meta else None
            dataset.add(series, meta=meta)
        return dataset
