"""Packed survey segments — the archive's compacted representation.

A segment folds one committed period's JSON document into a single
flat file optimized for point lookups:

* a magic header line;
* the data section — each AS's report entry as one canonical-JSON
  blob, concatenated;
* a JSON footer carrying everything that is not a per-AS report (the
  period header, the failure log, the quality counts), the per-AS
  index (``asn -> [offset, length, sha256]``) and a checksum of the
  whole reconstructed payload;
* a fixed-width trailer locating and checksumming the footer.

A reader maps the file once and parses nothing it does not need: the
footer (a few KB) loads once per open and the per-AS index lives in
memory, so ``get(asn)`` is one slice of the mapping + one SHA-256
over the blob.  Every byte served is checksum-verified — a flipped
bit anywhere surfaces as :class:`ArchiveCorruptionError`, never as a
silently wrong answer.

The reconstruction contract: ``SegmentReader.payload()`` returns a
dict whose canonical JSON is byte-identical to the ingested
``survey_to_dict`` output (the footer stores that digest and the
reader re-verifies it on every full read).
"""

from __future__ import annotations

import hashlib
import json
import mmap
from pathlib import Path
from typing import Dict, List, Optional, Union

import numpy as np

from ..parallel.cache import canonical_json
from .errors import ArchiveCorruptionError
from .io import REAL_IO, StoreIO

PathLike = Union[str, Path]

#: First bytes of every segment file; bump with the format.
MAGIC = b"REPROSEG1\n"

#: Trailer layout: footer offset (20 ascii digits) + footer length
#: (20 ascii digits) + footer SHA-256 (64 hex chars).
_TRAILER_LEN = 20 + 20 + 64

#: Columnar hot fields packed after the blobs: one value per
#: monitored AS, rows sorted by int ASN (blob order).  ``severity``
#: stores uint8 codes into the footer's ``severity_codes`` table.
_COLUMN_DTYPES = (
    ("asn", "<i8"),
    ("probe_count", "<i8"),
    ("severity", "|u1"),
    ("daily_amplitude_ms", "<f8"),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_segment(
    path: PathLike, payload: Dict, io: StoreIO = REAL_IO
) -> Path:
    """Pack one period's ``survey_to_dict`` payload into a segment.

    The write is atomic (temp file + fsync + rename through the store
    IO seam), so a crashed compaction leaves either no segment or a
    complete one.
    """
    path = Path(path)
    reports: Dict[str, Dict] = payload.get("reports", {})
    blobs: List[bytes] = []
    index: Dict[str, List] = {}
    offset = len(MAGIC)
    ordered = sorted(reports, key=int)
    for asn_text in ordered:
        blob = canonical_json(reports[asn_text]).encode("ascii")
        index[asn_text] = [offset, len(blob), _sha(blob)]
        blobs.append(blob)
        offset += len(blob)
    columns_bytes, columns_meta = _pack_columns(
        [(int(asn_text), reports[asn_text]) for asn_text in ordered],
        offset,
    )
    offset += len(columns_bytes)
    footer = {
        "format": MAGIC.decode("ascii").strip(),
        "period": payload["period"],
        "failures": payload.get("failures", {}),
        "quality": payload.get("quality", {}),
        "reports_index": index,
        "columns": columns_meta,
        "payload_checksum": _sha(
            canonical_json(payload).encode("ascii")
        ),
    }
    footer_bytes = canonical_json(footer).encode("ascii")
    trailer = (
        f"{offset:020d}{len(footer_bytes):020d}"
        f"{_sha(footer_bytes)}"
    ).encode("ascii")
    assert len(trailer) == _TRAILER_LEN

    io.write_atomic(
        path,
        MAGIC + b"".join(blobs) + columns_bytes + footer_bytes
        + trailer,
    )
    return path


def _pack_columns(reports, base_offset: int):
    """Binary hot-field arrays + their footer metadata.

    The values mirror exactly what the JSON path derives per report:
    severity string, probe count, and the daily amplitude (0.0 when
    markers are None — the convention :meth:`SurveyArchive.history`
    uses), so columnar answers are byte-identical once rendered.
    """
    count = len(reports)
    severity_codes = sorted({
        report["severity"] for _, report in reports
    })
    code_of = {name: code for code, name in enumerate(severity_codes)}
    arrays = {
        "asn": np.fromiter(
            (asn for asn, _ in reports), dtype=np.int64, count=count,
        ),
        "probe_count": np.fromiter(
            (report["probe_count"] for _, report in reports),
            dtype=np.int64, count=count,
        ),
        "severity": np.fromiter(
            (code_of[report["severity"]] for _, report in reports),
            dtype=np.uint8, count=count,
        ),
        "daily_amplitude_ms": np.fromiter(
            (
                (report["markers"] or {}).get(
                    "daily_amplitude_ms", 0.0
                )
                for _, report in reports
            ),
            dtype=np.float64, count=count,
        ),
    }
    chunks: List[bytes] = []
    layout: Dict[str, List] = {}
    offset = base_offset
    for name, dtype in _COLUMN_DTYPES:
        data = arrays[name].astype(np.dtype(dtype)).tobytes()
        layout[name] = [offset, count, dtype]
        chunks.append(data)
        offset += len(data)
    blob = b"".join(chunks)
    meta = {
        "offset": base_offset,
        "nbytes": len(blob),
        "count": count,
        "checksum": _sha(blob),
        "severity_codes": severity_codes,
        "arrays": layout,
    }
    return blob, meta


class SegmentReader:
    """Point-lookup view over one packed segment.

    The file is mapped once at open; every read is a slice of the
    mapping — no seeks, no locks, safe to share across threads — and
    the hot columns are served as zero-copy numpy views over it.
    Every byte served is verified.  A file that cannot be mapped
    (missing, unreadable, zero-length) is corrupt.
    """

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self._columns: Optional[Dict[str, np.ndarray]] = None
        try:
            with open(self.path, "rb") as handle:
                self._map: Optional[mmap.mmap] = mmap.mmap(
                    handle.fileno(), 0, access=mmap.ACCESS_READ
                )
        except (OSError, ValueError) as exc:
            raise ArchiveCorruptionError(
                self.path, f"segment unreadable: {exc}"
            ) from None
        try:
            self._footer = self._load_footer()
        except ArchiveCorruptionError:
            self.close()
            raise
        self._index: Dict[int, List] = {
            int(asn_text): entry
            for asn_text, entry in self._footer["reports_index"].items()
        }

    # -- lifecycle -----------------------------------------------------

    @property
    def mapped(self) -> bool:
        """True when reads are served from the memory mapping."""
        return self._map is not None

    def close(self) -> None:
        self._columns = None
        mapping, self._map = self._map, None
        if mapping is not None:
            try:
                mapping.close()
            except BufferError:
                # Column views still alive somewhere; the mapping is
                # reclaimed when the last view dies.
                pass

    def __enter__(self) -> "SegmentReader":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- internals -----------------------------------------------------

    def _mapping(self) -> mmap.mmap:
        mapping = self._map
        if mapping is None:
            raise ArchiveCorruptionError(
                self.path, "segment reader closed mid-read"
            )
        return mapping

    def _read_at(self, offset: int, length: int) -> bytes:
        try:
            data = self._mapping()[offset:offset + length]
        except ValueError:
            # A concurrent quarantine closed this reader mid-read;
            # surface it as corruption so callers fall back cleanly.
            raise ArchiveCorruptionError(
                self.path, "segment reader closed mid-read"
            ) from None
        if len(data) != length:
            raise ArchiveCorruptionError(
                self.path, f"truncated read at {offset}+{length}"
            )
        return data

    def _load_footer(self) -> Dict:
        # The mapping's length, not a stat: the mapping stays valid
        # even if a concurrent quarantine renames the file away.
        size = len(self._mapping())
        if size < len(MAGIC) + _TRAILER_LEN:
            raise ArchiveCorruptionError(
                self.path, f"file too short ({size} bytes)"
            )
        if self._read_at(0, len(MAGIC)) != MAGIC:
            raise ArchiveCorruptionError(self.path, "bad magic")
        trailer = self._read_at(size - _TRAILER_LEN, _TRAILER_LEN)
        try:
            footer_offset = int(trailer[:20])
            footer_length = int(trailer[20:40])
            footer_sha = trailer[40:].decode("ascii")
        except (ValueError, UnicodeDecodeError) as exc:
            raise ArchiveCorruptionError(
                self.path, f"unreadable trailer: {exc}"
            ) from None
        if footer_offset + footer_length + _TRAILER_LEN != size:
            raise ArchiveCorruptionError(
                self.path, "trailer does not span the file"
            )
        footer_bytes = self._read_at(footer_offset, footer_length)
        if _sha(footer_bytes) != footer_sha:
            raise ArchiveCorruptionError(
                self.path, "footer checksum mismatch"
            )
        try:
            footer = json.loads(footer_bytes)
        except ValueError as exc:
            raise ArchiveCorruptionError(
                self.path, f"footer does not parse: {exc}"
            ) from None
        if not isinstance(footer, dict) or "reports_index" not in footer:
            raise ArchiveCorruptionError(
                self.path, "footer missing reports index"
            )
        return footer

    # -- queries -------------------------------------------------------

    @property
    def period(self) -> Dict:
        """The period header stored in the footer."""
        return self._footer["period"]

    def asns(self) -> List[int]:
        """Monitored ASNs, sorted."""
        return sorted(self._index)

    def has_columns(self) -> bool:
        """True when the segment carries the binary hot columns."""
        return isinstance(self._footer.get("columns"), dict)

    def columns(self) -> Optional[Dict[str, np.ndarray]]:
        """Hot-field arrays, checksum-verified once then cached.

        Zero-copy views over the mapping.  None for segments written
        before the columns section existed.
        """
        if self._columns is not None:
            return self._columns
        meta = self._footer.get("columns")
        if not isinstance(meta, dict):
            return None
        base = int(meta["offset"])
        nbytes = int(meta["nbytes"])
        mapping = self._mapping()
        try:
            blob = memoryview(mapping)[base:base + nbytes]
        except ValueError:
            raise ArchiveCorruptionError(
                self.path, "segment reader closed mid-read"
            ) from None
        if len(blob) != nbytes or _sha(blob) != meta.get("checksum"):
            raise ArchiveCorruptionError(
                self.path, "columns section fails checksum"
            )
        arrays: Dict[str, np.ndarray] = {}
        for name, (offset, count, dtype) in meta["arrays"].items():
            view = np.frombuffer(
                mapping, dtype=np.dtype(dtype), count=int(count),
                offset=int(offset),
            )
            arrays[name] = view
        self._columns = arrays
        return arrays

    def severity_codes(self) -> List[str]:
        """Severity strings indexed by the ``severity`` column codes."""
        meta = self._footer.get("columns") or {}
        return list(meta.get("severity_codes", []))

    def column_entry(self, asn: int) -> Optional[Dict]:
        """One AS's hot fields straight from the columns.

        Byte-identical to deriving the same fields from the JSON blob:
        severity strings come from the footer's code table, counts are
        exact int64, and the amplitude is the stored float64 (0.0 when
        the report had no markers).  None when the segment has no
        columns section or the AS is absent.
        """
        arrays = self.columns()
        if arrays is None:
            return None
        asns = arrays["asn"]
        pos = int(np.searchsorted(asns, int(asn)))
        if pos >= len(asns) or int(asns[pos]) != int(asn):
            return None
        codes = self.severity_codes()
        code = int(arrays["severity"][pos])
        if code >= len(codes):
            raise ArchiveCorruptionError(
                self.path, f"severity code {code} out of range"
            )
        return {
            "severity": codes[code],
            "probe_count": int(arrays["probe_count"][pos]),
            "daily_amplitude_ms": float(
                arrays["daily_amplitude_ms"][pos]
            ),
        }

    def asns_with_severity(self, severity: str) -> Optional[List[int]]:
        """Sorted ASNs whose report carries ``severity``.

        Columnar scan; None when the segment predates the columns
        section (caller falls back to the JSON index).
        """
        arrays = self.columns()
        if arrays is None:
            return None
        codes = self.severity_codes()
        try:
            code = codes.index(severity)
        except ValueError:
            return []
        mask = arrays["severity"] == np.uint8(code)
        return [int(asn) for asn in arrays["asn"][mask]]

    def reported_asns(self) -> Optional[List[int]]:
        """Sorted ASNs with a non-``none`` severity (congested set)."""
        arrays = self.columns()
        if arrays is None:
            return None
        codes = self.severity_codes()
        if "none" not in codes:
            return [int(asn) for asn in arrays["asn"]]
        mask = arrays["severity"] != np.uint8(codes.index("none"))
        return [int(asn) for asn in arrays["asn"][mask]]

    def __contains__(self, asn: int) -> bool:
        return int(asn) in self._index

    def get(self, asn: int) -> Optional[Dict]:
        """One AS's report entry, checksum-verified; None when absent."""
        entry = self._index.get(int(asn))
        if entry is None:
            return None
        offset, length, checksum = entry
        blob = self._read_at(int(offset), int(length))
        if _sha(blob) != checksum:
            raise ArchiveCorruptionError(
                self.path, f"report blob for AS{asn} fails checksum"
            )
        return json.loads(blob)

    def payload(self) -> Dict:
        """The full ``survey_to_dict`` payload, byte-lossless.

        Reconstructs the document from the blobs + footer and verifies
        the stored whole-payload digest, so the result's canonical
        JSON is guaranteed identical to what was ingested.
        """
        payload = {
            "period": self._footer["period"],
            "reports": {
                str(asn): self.get(asn) for asn in self.asns()
            },
            "failures": self._footer.get("failures", {}),
            "quality": self._footer.get("quality", {}),
        }
        digest = _sha(canonical_json(payload).encode("ascii"))
        if digest != self._footer.get("payload_checksum"):
            raise ArchiveCorruptionError(
                self.path, "reconstructed payload fails checksum"
            )
        return payload
