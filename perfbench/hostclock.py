"""Host time scaled to a reference CPU speed.

This host's CPU speed drifts by up to 1.7x, in stretches of seconds to
minutes, with no steal time (process CPU time equals wall time in both
states).  A run that falls in a slow stretch is slow in every segment,
so no summary of its host timings can recover the program's own speed.
The benchmark therefore runs a short calibration chunk, a fixed
pure-Python loop, between timed segments, and scales each segment's
host time by how fast the chunks around it ran: ``host_s *
REFERENCE_CHUNK_S / chunk_s``.  A slow stretch slows the chunk and the
segment alike and cancels; a slower program does not slow the chunk
and shows in full.
"""

from __future__ import annotations

import math
import time

#: Iterations of one calibration chunk.
CHUNK_ITERATIONS = 10_000

#: Host seconds of one chunk at the reference speed: about the fastest
#: a 2.0 GHz Xeon VM runs it (1.6-1.8 ms fast, 2.6-2.9 ms slow).  Scaled times are
#: host seconds on a host that runs the chunk in exactly this long.
REFERENCE_CHUNK_S = 0.002


def run_chunk() -> float:
    """Host seconds of one calibration chunk (dict and integer work)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(CHUNK_ITERATIONS):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i
    return time.perf_counter() - start


class SegmentTimer:
    """Times the segments of one phase of a round between calibration
    chunks.

    ``start()`` runs a chunk and opens a segment, ``stop(key)`` closes
    it, ``lap(key)`` does both, and ``close()`` runs the chunk after the
    phase's last segment.  A segment is scaled by the geometric mean of
    the chunk right before it and the next one after it, which follows
    a change of host speed during the segment better than either alone.
    Without ``calibrate`` no chunk runs (the traced round, where a
    chunk would land inside some span) and every chunk counts as having
    run at the reference speed.
    """

    def __init__(self, calibrate: bool = True) -> None:
        self.calibrate = calibrate
        #: Host seconds of each segment, keyed by segment.
        self.host_s: dict[object, float] = {}
        #: Host seconds of every chunk, in the order they ran.
        self.chunks: list[float] = []
        #: Index in ``chunks`` of the chunk right before each segment.
        self._before: dict[object, int] = {}
        self._start = 0.0

    def _chunk(self) -> None:
        self.chunks.append(run_chunk() if self.calibrate
                           else REFERENCE_CHUNK_S)

    def start(self) -> None:
        self._chunk()
        self._start = time.perf_counter()

    def stop(self, key: object) -> None:
        self.host_s[key] = time.perf_counter() - self._start
        self._before[key] = len(self.chunks) - 1

    def lap(self, key: object) -> None:
        self.stop(key)
        self.start()

    def close(self) -> None:
        self._chunk()

    def chunk_s(self) -> dict[object, float]:
        """Each segment's chunk time: the geometric mean of the chunks
        around it."""
        return {key: math.sqrt(self.chunks[i] * self.chunks[i + 1])
                for key, i in self._before.items()}

    def scaled_s(self) -> dict[object, float]:
        """Each segment's host time at the reference speed."""
        chunks = self.chunk_s()
        return {key: host * REFERENCE_CHUNK_S / chunks[key]
                for key, host in self.host_s.items()}

    def calibration_s(self) -> float:
        """Host seconds the chunks took."""
        return sum(self.chunks) if self.calibrate else 0.0
