"""On-disk trace files: columnar traces in numpy ``.npz`` containers.

A trace file is a standard (uncompressed by default) numpy ``.npz``
archive holding, per thread, the three canonical columnar arrays plus a
JSON ``meta`` member::

    meta      uint8 bytes of a JSON document (format/version/routine/
              line_bytes/thread ids/content sha256)
    t0_addr   <u8   thread 0 addresses
    t0_kind   |u1   thread 0 AccessKind codes
    t0_gap    <f8   thread 0 gap cycles
    t1_addr   ...

Compressed and uncompressed files load the same way, through
``np.load``.

The ``meta`` digest is :func:`repro.sim.coltrace.trace_digest` of the
saved trace, so :func:`load_trace` verifies end-to-end integrity by
default, and a loaded trace produces the *same perf-cache key* as the
trace that was saved — cached simulation results survive the
export/import round trip.
"""

from __future__ import annotations

import json
import tokenize
import zipfile
from pathlib import Path
from typing import Any, Dict, Tuple, Union

import numpy as np

from ..errors import TraceError
from ..sim.coltrace import ColumnarThreadTrace, ColumnarTrace, trace_digest

#: Format tag stored in the meta member.
TRACE_FILE_FORMAT = "repro-trace-npz"

#: Bump on any layout change.
TRACE_FILE_VERSION = 1

#: What zipfile and numpy's npy-header parser raise on a truncated or
#: damaged archive; load_trace reports each as a TraceError.
_UNREADABLE = (
    OSError,
    ValueError,
    EOFError,
    SyntaxError,
    NotImplementedError,
    tokenize.TokenError,
    zipfile.BadZipFile,
)


def _member_names(index: int) -> Tuple[str, str, str]:
    return (f"t{index}_addr", f"t{index}_kind", f"t{index}_gap")


def save_trace(
    path: Union[str, Path],
    trace: ColumnarTrace,
    *,
    compress: bool = False,
) -> Dict[str, Any]:
    """Write ``trace`` to ``path`` as a trace file; returns its metadata.

    ``compress`` writes a smaller file that is slower to save and load.

    The write is atomic (temp file + rename via
    :func:`repro.io.atomic.atomic_writer`): a crash mid-save leaves the
    previous trace file — or nothing — never a torn archive.  The
    ``trace_corrupt``/``trace_truncate`` fault kinds damage the file
    *after* a successful save so :func:`load_trace`'s digest
    verification path stays exercised.
    """
    from .atomic import atomic_writer

    path = Path(path)
    meta = {
        "format": TRACE_FILE_FORMAT,
        "version": TRACE_FILE_VERSION,
        "routine": trace.routine,
        "line_bytes": trace.line_bytes,
        "thread_ids": [t.thread_id for t in trace.threads],
        "sha256": trace_digest(trace),
    }
    members: Dict[str, np.ndarray] = {
        "meta": np.frombuffer(
            json.dumps(meta, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    }
    for i, thread in enumerate(trace.threads):
        addr_name, kind_name, gap_name = _member_names(i)
        members[addr_name] = thread.addr
        members[kind_name] = thread.kind
        members[gap_name] = thread.gap_cycles
    saver = np.savez_compressed if compress else np.savez
    # Hand savez an open handle so the exact path is honored (savez
    # appends ".npz" to bare string paths).
    with atomic_writer(path) as handle:
        saver(handle, **members)

    from ..resilience.faults import get_injector

    injector = get_injector()
    if injector.active:
        key = str(meta["sha256"])
        injector.maybe_corrupt_file("trace_corrupt", key, path)
        injector.maybe_corrupt_file("trace_truncate", key, path)
    return meta


def load_trace(
    path: Union[str, Path],
    *,
    verify: bool = True,
) -> ColumnarTrace:
    """Read a trace file back as a :class:`ColumnarTrace`.

    With ``verify`` (the default) the content digest recorded at save
    time is recomputed and must match, else
    :class:`~repro.errors.TraceError`.
    """
    path = Path(path)
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise TraceError(f"{path} is not a repro trace file (not an .npz archive)")
        with archive:
            members = {name: archive[name] for name in archive.files}
    except _UNREADABLE as exc:
        raise TraceError(f"cannot read trace file {path}: {exc}") from None

    if "meta" not in members:
        raise TraceError(f"{path} is not a repro trace file (no meta member)")
    try:
        meta = json.loads(bytes(members["meta"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceError(f"corrupt trace-file metadata in {path}: {exc}") from None
    if not isinstance(meta, dict):
        raise TraceError(f"{path}: trace-file metadata is not a JSON object")
    if meta.get("format") != TRACE_FILE_FORMAT:
        raise TraceError(f"{path}: unknown trace-file format {meta.get('format')!r}")
    if meta.get("version") != TRACE_FILE_VERSION:
        raise TraceError(
            f"{path}: trace-file version {meta.get('version')!r} "
            f"(this build reads {TRACE_FILE_VERSION})"
        )
    try:
        thread_ids = [int(t) for t in meta["thread_ids"]]
        routine = str(meta["routine"])
        line_bytes = int(meta["line_bytes"])
    except KeyError as exc:
        raise TraceError(f"{path}: trace-file metadata lacks {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise TraceError(f"{path}: malformed trace-file metadata: {exc}") from None

    threads = []
    for i, thread_id in enumerate(thread_ids):
        addr_name, kind_name, gap_name = _member_names(i)
        try:
            addr, kind, gap = members[addr_name], members[kind_name], members[gap_name]
        except KeyError as exc:
            raise TraceError(f"{path}: missing member {exc}") from None
        threads.append(ColumnarThreadTrace(thread_id, addr, kind, gap))
    trace = ColumnarTrace(
        threads=tuple(threads), routine=routine, line_bytes=line_bytes
    )
    if verify:
        actual = trace_digest(trace)
        if actual != meta.get("sha256"):
            raise TraceError(
                f"{path}: content digest mismatch (file corrupt or edited): "
                f"stored {meta.get('sha256')!r}, computed {actual!r}"
            )
    return trace
