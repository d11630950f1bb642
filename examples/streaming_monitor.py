#!/usr/bin/env python3
"""Live-style monitoring with the raclette streaming pipeline.

Simulates four days of Atlas traceroutes from two ISPs — one clean,
one whose legacy PPPoE gateway saturates every evening — and feeds
them, in timestamp order, through the bounded-memory streaming monitor.
Alerts fire as sustained congestion develops; the final state is
rendered as per-day sparklines.

Run:  python examples/streaming_monitor.py
"""

import datetime as dt

import numpy as np

from repro.atlas import AtlasPlatform, ProbeVersion
from repro.core import daily_panel
from repro.netbase import AccessTechnology, ASInfo, ASRole
from repro.stream import LastMileMonitor, MonitorConfig, PrintSink
from repro.timebase import MeasurementPeriod
from repro.topology import ProvisioningPolicy, World

PERIOD = MeasurementPeriod("stream-demo", dt.datetime(2019, 9, 2), 4)
HOT_ASN, COOL_ASN = 64501, 64502


def build_stream():
    """Two-ISP world; returns (sorted results, probe->ASN map)."""
    world = World(seed=77)
    hot = world.add_isp(
        ASInfo(
            HOT_ASN, "HotNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_PPPOE_LEGACY],
        ),
        provisioning=ProvisioningPolicy(
            peak_utilization={AccessTechnology.FTTH_PPPOE_LEGACY: 0.96},
            device_spread=0.005, load_jitter_std=0.005,
        ),
    )
    cool = world.add_isp(
        ASInfo(
            COOL_ASN, "CoolNet", "JP", ASRole.EYEBALL,
            access_technologies=[AccessTechnology.FTTH_OWN],
        ),
    )
    world.add_default_targets()
    world.finalize()
    platform = AtlasPlatform(world)
    platform.config.outage_rate_per_day = 0.0

    probe_asn = {}
    probes = []
    for isp, asn in ((hot, HOT_ASN), (cool, COOL_ASN)):
        for probe in platform.deploy_probes_on_isp(
            isp, 4, version=ProbeVersion.V3
        ):
            probes.append(probe)
            probe_asn[probe.probe_id] = asn

    print("generating the measurement stream "
          f"({len(probes)} probes x {PERIOD.days} days)...")
    raw = platform.run_period(PERIOD, probes)
    stream = sorted(
        (r for results in raw.results.values() for r in results),
        key=lambda r: r.timestamp,
    )
    return stream, probe_asn


def main():
    stream, probe_asn = build_stream()
    monitor = LastMileMonitor(
        asn_of=probe_asn.get,
        config=MonitorConfig(
            alert_threshold_ms=1.0,
            alert_min_bins=4,
            baseline_window_bins=336,
        ),
        sink=PrintSink(),
    )
    print(f"streaming {len(stream)} traceroute results...\n")
    monitor.ingest_many(stream)
    monitor.flush()

    print()
    print(monitor.summary())
    print()
    names = {HOT_ASN: "HotNet", COOL_ASN: "CoolNet"}
    for asn in monitor.monitored_asns():
        series = monitor.delay_series(asn)
        bins = max(b for b, _d in series) + 1
        values = np.full(bins, np.nan)
        for b, delay in series:
            values[b] = delay
        print(daily_panel(
            values, bins_per_day=48,
            label=f"{names.get(asn, asn)} aggregated queueing delay",
        ))
        print()


if __name__ == "__main__":
    main()
