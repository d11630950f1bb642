"""raclette CLI: stream Atlas-schema JSON lines through the monitor.

Usage::

    python -m repro.raclette results.jsonl [--rib rib.txt]
        [--threshold-ms 1.0] [--min-bins 4] [--summary-top 10]

``results.jsonl`` holds one Atlas traceroute result per line (``-``
reads stdin).  Without ``--rib``, probes are grouped by the ``prb_id``
prefix convention used by the simulator's exports; with a RIB dump
(the :meth:`repro.bgp.RoutingTable.to_text` format) probes are mapped
to ASes by longest-prefix match of their public address, as in the
paper.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional

from ..atlas.traceroute import TracerouteResult
from ..bgp import RoutingTable
from ..netbase import parse_address
from ..obs import Observability, observed, render_trace, write_report
from ..quality import DropReason
from ..stream import LastMileMonitor, MonitorConfig, PrintSink
from ..stream.monitor import STAGE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.raclette",
        description="Streaming last-mile congestion monitor.",
    )
    parser.add_argument(
        "results", help="JSON-lines traceroute results ('-' = stdin)"
    )
    parser.add_argument(
        "--rib", help="RIB dump (prefix|as_path lines) for probe->AS "
        "mapping by longest-prefix match",
    )
    parser.add_argument("--threshold-ms", type=float, default=1.0)
    parser.add_argument("--min-bins", type=int, default=4)
    parser.add_argument(
        "--baseline-bins", type=int, default=336,
        help="rolling baseline window in bins (336 = 1 week)",
    )
    parser.add_argument(
        "--summary-top", type=int, default=10,
        help="ASes to list in the final summary",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="print the span tree after the stream ends",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the observability report (metrics + trace + "
        "profile) as JSON; render with 'repro obs report PATH'",
    )
    return parser


def make_asn_resolver(rib_path: Optional[str]):
    """Probe-id -> ASN resolver, RIB-backed when available."""
    table = None
    if rib_path:
        with open(rib_path) as handle:
            table = RoutingTable.from_text(handle.read())
    cache: Dict[int, Optional[int]] = {}
    addresses: Dict[int, str] = {}

    def note_address(prb_id: int, from_address: str) -> None:
        addresses.setdefault(prb_id, from_address)

    def resolve(prb_id: int) -> Optional[int]:
        if prb_id in cache:
            return cache[prb_id]
        if table is None:
            cache[prb_id] = prb_id  # group by probe when no RIB
            return prb_id
        address = addresses.get(prb_id)
        asn = None
        if address:
            try:
                value, version = parse_address(address)
                asn = table.resolve_asn(value, version)
            except ValueError:
                asn = None
        cache[prb_id] = asn
        return asn

    return note_address, resolve


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not (args.trace or args.metrics_out):
        return _run_stream(args)
    # The monitor binds its metric handles at construction, so the
    # observer has to be live before _run_stream builds it.
    with observed(Observability()) as obs:
        code = _run_stream(args)
    if args.trace:
        print()
        print(render_trace(obs.tracer))
    if args.metrics_out:
        write_report(obs, args.metrics_out)
        print(f"wrote observability report to {args.metrics_out}")
    return code


def _run_stream(args) -> int:
    from ..obs import get_observer

    obs = get_observer()
    note_address, resolve = make_asn_resolver(args.rib)
    monitor = LastMileMonitor(
        asn_of=resolve,
        config=MonitorConfig(
            alert_threshold_ms=args.threshold_ms,
            alert_min_bins=args.min_bins,
            baseline_window_bins=args.baseline_bins,
        ),
        sink=PrintSink(),
    )

    handle = sys.stdin if args.results == "-" else open(args.results)
    try:
        with obs.stage_span("monitor-stream", src=args.results) as span:
            lines_read = 0
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                lines_read += 1
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    monitor.quality.ingest(STAGE)
                    monitor.quality.drop(
                        STAGE, DropReason.CORRUPT_LINE, detail=str(exc)
                    )
                    continue
                try:
                    result = TracerouteResult.from_json(record)
                except (KeyError, TypeError, ValueError) as exc:
                    monitor.quality.ingest(STAGE)
                    monitor.quality.drop(
                        STAGE, DropReason.MALFORMED_RECORD,
                        detail=str(exc),
                    )
                    continue
                note_address(result.prb_id, result.from_address)
                monitor.ingest(result)
            monitor.flush()
            obs.items_in(STAGE, lines_read)
            obs.items_out(STAGE, monitor.results_seen)
            span.set_attr("lines", lines_read)
    finally:
        if handle is not sys.stdin:
            handle.close()
    obs.record_quality(monitor.quality)

    print()
    print(monitor.summary())
    ranked = sorted(
        monitor.monitored_asns(),
        key=lambda asn: -max(
            (d for _b, d in monitor.delay_series(asn)), default=0.0
        ),
    )
    for asn in ranked[: args.summary_top]:
        series = monitor.delay_series(asn)
        peak = max(d for _b, d in series)
        print(f"AS{asn}: {len(series)} bins, peak aggregated delay "
              f"{peak:.2f} ms")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
