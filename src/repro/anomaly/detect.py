"""Wilson-band anomaly detection over per-link differential RTT.

Detection follows Fontugne et al.: each (link, bin) population of
differential samples gets a median — computed by the shared
:mod:`repro.core.kernels` grouped-median pass, the same one the
last-mile estimator runs — and a closed-form Wilson rank band
(:func:`repro.core.stats.wilson_score_interval`).  A per-link *normal*
reference is learned per time-of-day slot (median across days of the
per-bin medians and band edges), which makes recurring diurnal
congestion part of "normal" by construction; a *delay anomaly* is a
bin whose band stops overlapping its slot reference by more than
``min_gap_ms``.  A *forwarding anomaly* is a bin where a hop's
next-hop distribution moves more than ``forwarding_threshold`` in
total-variation distance from its reference pattern.

Everything downstream of the scan is deterministic: link rows are
processed in sorted id order, events are emitted in sorted order, and
payload floats are rounded once at serialization — the properties the
byte-identical cross-shard contract rests on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.kernels import record_kernel_op
from ..core.kernels.vector import dataset_bin_medians, flatten_samples
from ..core.stats import churn_jaccard, wilson_score_interval
from ..obs import get_observer
from ..quality import DataQualityReport
from ..timebase import TimeGrid
from .links import LinkObservations, link_id, scan_links, split_link_id

STAGE = "anomaly"

#: Wilson band confidence per (link, bin).
DEFAULT_CONFIDENCE = 0.95
#: Minimum traceroutes observing a link in a bin (sanity gate, the
#: per-link analog of MIN_TRACEROUTES_PER_BIN).
DEFAULT_MIN_SAMPLES = 3
#: Total-variation shift that flags a forwarding anomaly.
DEFAULT_FORWARDING_THRESHOLD = 0.5
#: Band separation below this is measurement noise, not an anomaly.
DEFAULT_MIN_GAP_MS = 2.0
#: A slot needs this many usable bins (≈ days) before it can serve as
#: a reference; below it the slot stays unlearned rather than letting
#: a bin self-certify against itself.
MIN_REFERENCE_BINS = 2

PAYLOAD_KIND = "anomaly-report"

#: Links per grouped-median call: bounds the flat sample arrays (and
#: the sort's scratch) to a slice of the scan instead of all of it.
LINK_CHUNK = 16


def _round(value: float, digits: int = 4) -> Optional[float]:
    """JSON-safe float: round, and map non-finite to None."""
    if value is None or not np.isfinite(value):
        return None
    return round(float(value), digits)


def link_bin_medians(
    observations: LinkObservations,
    min_samples: int = DEFAULT_MIN_SAMPLES,
) -> Tuple[List[str], np.ndarray, np.ndarray]:
    """Per-(link, bin) differential medians in one grouped pass.

    Links are rows (sorted id order), bins are columns — the same flat
    ``(row, bin, samples)`` shape the last-mile estimator feeds
    :func:`~repro.core.kernels.vector.dataset_bin_medians`, which
    computes the whole matrix at once.  Returns
    ``(link_ids, median_matrix, counts_matrix)``; bins under
    ``min_samples`` observing traceroutes stay NaN.
    """
    grid = observations.grid
    num_bins = grid.num_bins
    keyed = {link_id(*key): key for key in observations.counts}
    link_ids = sorted(keyed)
    num_links = len(link_ids)
    counts_matrix = np.zeros((num_links, num_bins), dtype=np.int64)
    for row, name in enumerate(link_ids):
        for bin_index, n in observations.counts[keyed[name]].items():
            counts_matrix[row, bin_index] = n

    record_kernel_op("anomaly-link-medians")
    medians = np.full((num_links, num_bins), np.nan)
    for start in range(0, num_links, LINK_CHUNK):
        stop = min(start + LINK_CHUNK, num_links)
        keys: List[int] = []
        sample_lists: List[List[float]] = []
        for row in range(start, stop):
            bins = observations.samples.get(keyed[link_ids[row]], {})
            for bin_index in sorted(bins):
                keys.append((row - start) * num_bins + bin_index)
                sample_lists.append(bins[bin_index])
        medians[start:stop], _valid = dataset_bin_medians(
            *flatten_samples(keys, sample_lists), stop - start,
            num_bins, counts_matrix[start:stop], min_samples,
        )
    return link_ids, medians, counts_matrix


def _learn_reference(
    link_ids: Sequence[str],
    medians: np.ndarray,
    lows: np.ndarray,
    highs: np.ndarray,
    grid: TimeGrid,
) -> Dict[str, Dict[str, List[Optional[float]]]]:
    """Per-link, per-slot normal bands from this period's own bins.

    Slot = ``bin % bins_per_day``; the reference for a slot is the
    median across days of the per-bin medians and band edges.  With a
    transient fault on at most half the days of a slot the median
    holds the normal value, which is what lets a period self-reference
    and still see its own anomalies.
    """
    slots = grid.bins_per_day
    reference: Dict[str, Dict[str, List[Optional[float]]]] = {}
    for row, name in enumerate(link_ids):
        med_row: List[Optional[float]] = [None] * slots
        low_row: List[Optional[float]] = [None] * slots
        high_row: List[Optional[float]] = [None] * slots
        for slot in range(slots):
            columns = np.arange(slot, grid.num_bins, slots)
            usable = columns[
                np.isfinite(medians[row, columns])
                & np.isfinite(lows[row, columns])
                & np.isfinite(highs[row, columns])
            ]
            if usable.shape[0] < MIN_REFERENCE_BINS:
                continue
            med_row[slot] = float(np.median(medians[row, usable]))
            low_row[slot] = float(np.median(lows[row, usable]))
            high_row[slot] = float(np.median(highs[row, usable]))
        reference[name] = {
            "median_ms": med_row,
            "low_ms": low_row,
            "high_ms": high_row,
        }
    return reference


def _forwarding_reference(
    observations: LinkObservations,
) -> Dict[str, Dict[str, int]]:
    """Aggregate next-hop counts over the whole period, per route.

    Keys are ``near--dst`` route ids (same separator as link ids), so
    the mapping serializes directly into the report payload and can be
    reused as an external reference.
    """
    reference: Dict[str, Dict[str, int]] = {}
    for (near, dst), bins in observations.next_hops.items():
        totals: Dict[str, int] = {}
        for fars in bins.values():
            for far, n in fars.items():
                totals[far] = totals.get(far, 0) + n
        reference[link_id(near, dst)] = totals
    return reference


def _tv_distance(
    observed: Mapping[str, int], expected: Mapping[str, int]
) -> float:
    """Total-variation distance between two next-hop count patterns."""
    n_obs = sum(observed.values())
    n_exp = sum(expected.values())
    if n_obs == 0 or n_exp == 0:
        return 0.0
    keys = set(observed) | set(expected)
    return 0.5 * sum(
        abs(observed.get(k, 0) / n_obs - expected.get(k, 0) / n_exp)
        for k in keys
    )


def _top_hop(counts: Mapping[str, int]) -> Optional[str]:
    """Deterministic modal next hop (count desc, address asc)."""
    if not counts:
        return None
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


@dataclass(frozen=True)
class AnomalyReport:
    """One period's anomaly findings, payload-first.

    ``payload`` is the canonical-JSON-ready dict the archive commits;
    every accessor reads it, so a report loaded back from the archive
    behaves identically to a freshly computed one.
    """

    payload: Dict

    @classmethod
    def from_payload(cls, payload: Dict) -> "AnomalyReport":
        if payload.get("kind") != PAYLOAD_KIND:
            raise ValueError(
                f"not an anomaly report payload: kind="
                f"{payload.get('kind')!r}"
            )
        return cls(payload=payload)

    @property
    def events(self) -> List[Dict]:
        return list(self.payload["events"])

    @property
    def links(self) -> Dict[str, Dict]:
        return dict(self.payload["links"])

    def events_of_kind(self, kind: str) -> List[Dict]:
        return [e for e in self.events if e["kind"] == kind]

    @property
    def anomalous_links(self) -> List[str]:
        """Links with at least one delay event, sorted."""
        return sorted({
            e["link"] for e in self.events if e["kind"] == "delay"
        })


def detect_anomalies(
    results_by_probe: Dict[int, List],
    grid: TimeGrid,
    period_name: str = "",
    *,
    confidence: float = DEFAULT_CONFIDENCE,
    min_samples: int = DEFAULT_MIN_SAMPLES,
    forwarding_threshold: float = DEFAULT_FORWARDING_THRESHOLD,
    min_gap_ms: float = DEFAULT_MIN_GAP_MS,
    reference: Optional[Dict] = None,
    quality: Optional[DataQualityReport] = None,
    shards: int = 1,
) -> AnomalyReport:
    """Run the full anomaly pipeline over one period's traceroutes.

    ``reference`` is a learned normal model from other periods (see
    :func:`reference_from_payload` / :func:`merge_references`); when
    absent the period self-references per time-of-day slot.  The
    returned report's payload is deterministic: byte-identical across
    ``shards`` values.
    """
    obs = get_observer()
    with obs.stage_span(
        STAGE, probes=len(results_by_probe), shards=shards,
    ):
        scan = scan_links(
            results_by_probe, grid, quality=quality, shards=shards
        )
        obs.items_in(STAGE, scan.processed)
        link_ids, medians, counts = link_bin_medians(
            scan, min_samples=min_samples
        )
        keyed = {name: split_link_id(name) for name in link_ids}
        num_links, num_bins = len(link_ids), grid.num_bins

        lows = np.full((num_links, num_bins), np.nan)
        highs = np.full((num_links, num_bins), np.nan)
        for row, name in enumerate(link_ids):
            bins = scan.samples.get(keyed[name], {})
            for bin_index, values in bins.items():
                if (
                    counts[row, bin_index] >= min_samples
                    and np.isfinite(medians[row, bin_index])
                ):
                    lo, hi = wilson_score_interval(values, confidence)
                    lows[row, bin_index] = lo
                    highs[row, bin_index] = hi

        if reference is not None:
            bands = reference.get("bands", {})
            forwarding_ref = reference.get("forwarding", {})
            reference_source = reference.get("source", "external")
        else:
            bands = _learn_reference(
                link_ids, medians, lows, highs, grid
            )
            forwarding_ref = _forwarding_reference(scan)
            reference_source = "self"

        slots = grid.bins_per_day
        events: List[Dict] = []
        anomalous_bins: Dict[str, List[int]] = {}
        for row, name in enumerate(link_ids):
            ref = bands.get(name)
            if ref is None:
                continue
            for bin_index in range(num_bins):
                lo = lows[row, bin_index]
                hi = highs[row, bin_index]
                if not (np.isfinite(lo) and np.isfinite(hi)):
                    continue
                slot = bin_index % slots
                ref_lo = ref["low_ms"][slot]
                ref_hi = ref["high_ms"][slot]
                ref_med = ref["median_ms"][slot]
                if ref_lo is None or ref_hi is None:
                    continue
                gap = max(ref_lo - hi, lo - ref_hi)
                if gap <= min_gap_ms:
                    continue
                anomalous_bins.setdefault(name, []).append(bin_index)
                events.append({
                    "kind": "delay",
                    "link": name,
                    "bin": bin_index,
                    "direction": "high" if lo > ref_hi else "low",
                    "median_ms": _round(medians[row, bin_index]),
                    "band_ms": [_round(lo), _round(hi)],
                    "reference_ms": [
                        _round(ref_lo) if ref_lo is not None else None,
                        _round(ref_hi) if ref_hi is not None else None,
                    ],
                    "reference_median_ms":
                        _round(ref_med) if ref_med is not None else None,
                    "gap_ms": _round(gap),
                })

        for near, dst in sorted(scan.next_hops):
            expected = forwarding_ref.get(link_id(near, dst))
            if not expected:
                continue
            for bin_index in sorted(scan.next_hops[(near, dst)]):
                observed = scan.next_hops[(near, dst)][bin_index]
                if sum(observed.values()) < min_samples:
                    continue
                shift = _tv_distance(observed, expected)
                if shift <= forwarding_threshold:
                    continue
                events.append({
                    "kind": "forwarding",
                    "near": near,
                    "dst": dst,
                    "bin": bin_index,
                    "shift": _round(shift),
                    "observed": _top_hop(observed),
                    "expected": _top_hop(expected),
                })

        events.sort(key=lambda e: (
            e["bin"], e["kind"],
            e.get("link", e.get("near", "") + e.get("dst", "")),
        ))

        links_payload: Dict[str, Dict] = {}
        for row, name in enumerate(link_ids):
            near, far = keyed[name]
            all_samples: List[float] = []
            for values in scan.samples.get(keyed[name], {}).values():
                all_samples.extend(values)
            finite = medians[row][np.isfinite(medians[row])]
            band = (
                wilson_score_interval(all_samples, confidence)
                if len(all_samples) >= 2 else (np.nan, np.nan)
            )
            links_payload[name] = {
                "near": near,
                "far": far,
                "samples": len(all_samples),
                "bins": int(np.isfinite(medians[row]).sum()),
                "median_ms": _round(
                    float(np.median(finite)) if finite.size else
                    float("nan")
                ),
                "band_ms": [_round(band[0]), _round(band[1])],
                "anomalous_bins": anomalous_bins.get(name, []),
                "reference": {
                    key: [
                        _round(v) if v is not None else None
                        for v in values
                    ]
                    for key, values in bands.get(name, {
                        "median_ms": [None] * slots,
                        "low_ms": [None] * slots,
                        "high_ms": [None] * slots,
                    }).items()
                },
            }

        forwarding_payload = {
            near: dict(sorted(totals.items()))
            for near, totals in sorted(
                _forwarding_reference(scan).items()
            )
        }

        payload = {
            "kind": PAYLOAD_KIND,
            "period": period_name,
            "bin_seconds": grid.bin_seconds,
            "num_bins": num_bins,
            "bins_per_day": slots,
            "confidence": confidence,
            "min_samples": min_samples,
            "forwarding_threshold": forwarding_threshold,
            "min_gap_ms": min_gap_ms,
            "reference_source": reference_source,
            "processed": scan.processed,
            "links_total": num_links,
            "links": links_payload,
            "forwarding": forwarding_payload,
            "events": events,
        }

        obs.items_out(STAGE, len(events))
        obs.counter(
            "anomaly_links_total",
            "Links observed by anomaly detection",
        ).inc(num_links)
        events_counter = obs.counter(
            "anomaly_events_total",
            "Anomaly events flagged",
            label_names=("kind",),
        )
        for kind in ("delay", "forwarding"):
            n = sum(1 for e in events if e["kind"] == kind)
            if n:
                events_counter.inc(n, kind=kind)
        return AnomalyReport(payload=payload)


def reference_from_payload(payload: Dict) -> Dict:
    """Extract the learned normal model from a stored report payload.

    The result plugs into :func:`detect_anomalies` ``reference=`` so a
    fresh period is judged against history instead of itself.
    """
    report = AnomalyReport.from_payload(payload)
    bands = {
        name: entry["reference"]
        for name, entry in report.links.items()
    }
    return {
        "bands": bands,
        "forwarding": dict(payload.get("forwarding", {})),
        "source": f"period:{payload.get('period', '')}",
    }


def merge_references(references: Sequence[Dict]) -> Dict:
    """Combine per-period references: element-wise median per slot.

    Forwarding counts are summed — pattern proportions, not volumes,
    drive the total-variation test.
    """
    if not references:
        raise ValueError("no references to merge")
    if len(references) == 1:
        return references[0]
    bands: Dict[str, Dict[str, List[Optional[float]]]] = {}
    names = sorted({
        name for ref in references for name in ref.get("bands", {})
    })
    for name in names:
        per_ref = [
            ref["bands"][name] for ref in references
            if name in ref.get("bands", {})
        ]
        slots = len(per_ref[0]["median_ms"])
        merged_entry: Dict[str, List[Optional[float]]] = {}
        for key in ("median_ms", "low_ms", "high_ms"):
            row: List[Optional[float]] = []
            for slot in range(slots):
                values = [
                    entry[key][slot] for entry in per_ref
                    if entry[key][slot] is not None
                ]
                row.append(
                    float(np.median(values)) if values else None
                )
            merged_entry[key] = row
        bands[name] = merged_entry
    forwarding: Dict[str, Dict[str, int]] = {}
    for ref in references:
        for near, totals in ref.get("forwarding", {}).items():
            mine = forwarding.setdefault(near, {})
            for far, n in totals.items():
                mine[far] = mine.get(far, 0) + n
    sources = ",".join(
        ref.get("source", "?") for ref in references
    )
    return {
        "bands": bands,
        "forwarding": forwarding,
        "source": sources,
    }


def anomaly_deltas(before: Dict, after: Dict) -> Dict:
    """Cross-period anomaly churn, mirroring the AS-churn queries.

    Compares the *anomalous link sets* of two report payloads with the
    same Jaccard the survey-history machinery uses for reported-AS
    churn, and lists which links' anomalies appeared, persisted, or
    resolved.
    """
    before_links = set(AnomalyReport.from_payload(before).anomalous_links)
    after_links = set(AnomalyReport.from_payload(after).anomalous_links)
    return {
        "before": before.get("period", ""),
        "after": after.get("period", ""),
        "jaccard": churn_jaccard(
            sorted(before_links), sorted(after_links)
        ),
        "new": sorted(after_links - before_links),
        "resolved": sorted(before_links - after_links),
        "persisting": sorted(before_links & after_links),
    }
