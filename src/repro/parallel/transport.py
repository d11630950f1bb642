"""Zero-copy shard transport over ``multiprocessing.shared_memory``.

The shard boundary used to pickle every :class:`ProbeBinSeries` into
the pool — twice the dataset's bytes serialized per run (parent
pickles, worker unpickles into fresh arrays).  This module replaces
that with flat-array framing:

* :func:`pack_arrays` writes a mapping of numpy arrays into one
  shared-memory block, 16-byte-aligned, and returns a picklable
  :class:`ShmBlockRef` (block name + per-array name/shape/dtype/offset
  specs) that crosses the process boundary instead of the data.
* :func:`unpack_arrays` maps the block back into numpy views —
  zero-copy on the worker side; the caller holds the returned
  handle open for as long as the views are in use.
* :func:`pack_dataset` / :func:`unpack_dataset` apply that framing to
  a :class:`~repro.core.series.LastMileDataset` shard slice: the
  (probe x bin) median/count matrices ride in shared memory, only the
  small probe-meta dicts still pickle.  Series order inside the block
  is sorted probe id, so reconstruction is deterministic.
* :func:`pack_signals` / :func:`unpack_signals` do the reverse
  direction: a worker's kept :class:`AggregatedSignal` arrays travel
  back to the parent in one block, and the parent reassembles them
  (copying out before the block is unlinked).

Ownership discipline — the invariant the property suite enforces:
whoever *creates* a block unlinks it, in a ``finally``, even when the
consumer crashed; attachers only ever close.  Unlinking twice is
tolerated (:func:`ShmBlockRef.release` swallows
``FileNotFoundError``) so crash paths may release defensively.

A pool with more than one worker always ships shards through shared
memory; in-process shards (``workers == 1``) carry the dataset object
itself (``pack_dataset(..., use_shm=False)``), since nothing crosses a
process boundary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..core.series import LastMileDataset, ProbeBinSeries

_ALIGN = 16


@dataclass(frozen=True)
class ArraySpec:
    """Layout of one array inside a shared block."""

    name: str
    shape: Tuple[int, ...]
    dtype: str
    offset: int


@dataclass
class ShmBlockRef:
    """Picklable name + layout of one packed shared-memory block."""

    block_name: str
    specs: List[ArraySpec]
    nbytes: int

    def release(self) -> None:
        """Unlink the block; safe to call twice or after a crash."""
        try:
            from multiprocessing import shared_memory

            segment = shared_memory.SharedMemory(name=self.block_name)
        except FileNotFoundError:
            return
        _untrack(segment)
        segment.close()
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover — racing release
            pass


def _untrack(segment) -> None:
    """Cancel the resource tracker's registration for an attachment.

    CPython registers *every* ``SharedMemory`` with the resource
    tracker, including attach-only handles (bpo-39959), so a block
    registered by creator and attacher alike would be reported leaked
    at shutdown after the creator's single unlink.  Each attacher
    therefore unregisters its own spurious registration.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:  # pragma: no cover — tracker API drift
        pass


def pack_arrays(arrays: Mapping[str, np.ndarray]) -> ShmBlockRef:
    """Write arrays into one fresh shared block; caller owns unlink."""
    from multiprocessing import shared_memory

    specs: List[ArraySpec] = []
    prepared: List[np.ndarray] = []
    offset = 0
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        if array.dtype.hasobject:
            raise TypeError(
                f"array {name!r} has object dtype; only flat "
                "numeric arrays can ride shared memory"
            )
        offset = (offset + _ALIGN - 1) & ~(_ALIGN - 1)
        specs.append(ArraySpec(
            name=name, shape=tuple(array.shape),
            dtype=array.dtype.str, offset=offset,
        ))
        prepared.append(array)
        offset += array.nbytes
    nbytes = max(offset, 1)
    segment = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        for spec, array in zip(specs, prepared):
            if array.size:
                view = np.ndarray(
                    spec.shape, dtype=np.dtype(spec.dtype),
                    buffer=segment.buf, offset=spec.offset,
                )
                view[...] = array
        ref = ShmBlockRef(
            block_name=segment.name, specs=specs, nbytes=nbytes,
        )
    except BaseException:
        segment.close()
        segment.unlink()
        raise
    segment.close()
    return ref


def unpack_arrays(
    ref: ShmBlockRef,
) -> Tuple[Dict[str, np.ndarray], Callable[[], None]]:
    """Map a packed block into read-only views.

    Returns ``(arrays, close)``; the views alias the mapping, so the
    caller must not use them after calling ``close``.  ``close`` only
    detaches — the creator still owns the unlink.
    """
    from multiprocessing import shared_memory

    segment = shared_memory.SharedMemory(name=ref.block_name)
    _untrack(segment)
    arrays: Dict[str, np.ndarray] = {}
    for spec in ref.specs:
        view = np.ndarray(
            spec.shape, dtype=np.dtype(spec.dtype),
            buffer=segment.buf, offset=spec.offset,
        )
        view.flags.writeable = False
        arrays[spec.name] = view
    return arrays, segment.close


@dataclass
class PackedDataset:
    """Picklable stand-in for a shard's :class:`LastMileDataset`.

    Either ``block`` carries the numeric payload (shared-memory path)
    or ``fallback`` carries the dataset itself (in-process shard);
    exactly one is set.
    """

    grid: object
    probe_meta: Dict[int, object] = field(default_factory=dict)
    #: Row order of the packed median/count matrices.
    probe_ids: List[int] = field(default_factory=list)
    block: Optional[ShmBlockRef] = None
    fallback: Optional[LastMileDataset] = None

    def release(self) -> None:
        """Unlink the underlying block (no-op for in-process shards)."""
        if self.block is not None:
            self.block.release()


def pack_dataset(
    dataset: LastMileDataset, use_shm: bool = True
) -> PackedDataset:
    """Pack a dataset slice for transport to a shard worker.

    ``use_shm=False`` carries the dataset object itself, for a shard
    that runs in the parent process.
    """
    if not use_shm:
        return PackedDataset(
            grid=dataset.grid,
            probe_meta=dict(dataset.probe_meta),
            fallback=dataset,
        )
    ids = dataset.probe_ids()
    num_bins = dataset.grid.num_bins
    medians = np.empty((len(ids), num_bins), dtype=np.float64)
    counts = np.empty((len(ids), num_bins), dtype=np.int64)
    for row, prb_id in enumerate(ids):
        series = dataset.series[prb_id]
        medians[row] = series.median_rtt_ms
        counts[row] = series.traceroute_counts
    block = pack_arrays({"medians": medians, "counts": counts})
    return PackedDataset(
        grid=dataset.grid,
        probe_meta=dict(dataset.probe_meta),
        probe_ids=list(ids),
        block=block,
    )


def unpack_dataset(
    packed: PackedDataset,
) -> Tuple[LastMileDataset, Callable[[], None]]:
    """Rebuild a dataset from a packed shard.

    On the shared-memory path the series arrays are zero-copy views
    into the block; classification only reads them, and ``close`` must
    be called after the shard's work (the views die with it).
    """
    if packed.fallback is not None:
        return packed.fallback, lambda: None
    arrays, close = unpack_arrays(packed.block)
    dataset = LastMileDataset(grid=packed.grid)
    dataset.probe_meta.update(packed.probe_meta)
    medians = arrays["medians"]
    counts = arrays["counts"]
    for row, prb_id in enumerate(packed.probe_ids):
        dataset.series[prb_id] = ProbeBinSeries(
            prb_id=prb_id,
            median_rtt_ms=medians[row],
            traceroute_counts=counts[row],
        )
    return dataset, close


@dataclass
class PackedSignals:
    """Worker-kept signals, packed for the return trip."""

    #: ASN order of the packed rows.
    asns: List[int] = field(default_factory=list)
    probe_counts: List[int] = field(default_factory=list)
    block: Optional[ShmBlockRef] = None

    def release(self) -> None:
        if self.block is not None:
            self.block.release()


def pack_signals(
    signals: Mapping[int, object],
) -> Optional[PackedSignals]:
    """Pack per-AS :class:`AggregatedSignal` arrays for the parent.

    Returns None when there is nothing to ship.
    """
    if not signals:
        return None
    asns = sorted(signals)
    arrays: Dict[str, np.ndarray] = {}
    probe_counts = []
    for asn in asns:
        signal = signals[asn]
        arrays[f"delay:{asn}"] = signal.delay_ms
        arrays[f"contrib:{asn}"] = signal.contributing
        probe_counts.append(signal.probe_count)
    return PackedSignals(
        asns=asns, probe_counts=probe_counts,
        block=pack_arrays(arrays),
    )


def unpack_signals(packed: PackedSignals, grid) -> Dict[int, object]:
    """Reassemble signals in the parent, copying out of the block.

    The parent unlinks the block immediately after (it created no
    views that outlive the copy), so the returned signals own their
    arrays.
    """
    from ..core.aggregate import AggregatedSignal

    arrays, close = unpack_arrays(packed.block)
    try:
        return {
            asn: AggregatedSignal(
                grid=grid,
                delay_ms=arrays[f"delay:{asn}"].copy(),
                probe_count=probe_count,
                contributing=arrays[f"contrib:{asn}"].copy(),
            )
            for asn, probe_count in zip(
                packed.asns, packed.probe_counts
            )
        }
    finally:
        close()
