"""raclette — streaming last-mile delay monitoring.

The paper releases its tooling as *raclette: human-friendly monitoring
of Internet delays* [16].  The monitor itself lives in
:mod:`repro.stream.monitor`, beside the streaming survey engine whose
open-bin estimator it shares; this package re-exports it and holds the
``python -m repro.raclette`` CLI.

Run the CLI on an Atlas-schema JSON-lines file::

    python -m repro.raclette --rib rib.txt results.jsonl
"""

from ..stream.monitor import (
    Alert,
    AlertSink,
    LastMileMonitor,
    ListSink,
    MonitorConfig,
    PrintSink,
    RollingMinimum,
)

__all__ = [
    "Alert",
    "AlertSink",
    "ListSink",
    "PrintSink",
    "LastMileMonitor",
    "MonitorConfig",
    "RollingMinimum",
]
