"""The benchmark's own seeded input generator.

Everything a workload feeds the simulator comes from here and is a pure
function of ``--seed``: the DAX op streams and page payloads, and the
fleet configuration whose seed drives ``Fleet.plan``.  The traced run
wraps these functions as the ``workloads.gen`` span, so callers reach
them through the module attribute (``inputs.dax_inputs(...)``).
"""

from __future__ import annotations

import random
import zlib
from array import array

from repro.fleet import FleetConfig
from repro.units import PAGE_4K


def stream_seed(seed: int, stream: str) -> int:
    """An independent 32-bit seed per named stream (CRC32, hash-free)."""
    return zlib.crc32(f"{seed}:{stream}".encode("ascii"))


def payload(seed: int, page: int) -> bytes:
    """The known 4 KB content of device page ``page`` under ``seed``."""
    head = seed.to_bytes(8, "little", signed=True) + page.to_bytes(8, "little")
    return head + bytes([(page * 131 + seed * 7) % 251]) * (PAGE_4K - 16)


#: Share of reads, in percent, of the DAX op streams.
READ_PCT = 70


def dax_inputs(seed: int, device_pages: int, footprint_pages: int,
               nops: int) -> tuple[array, list[bool], list[bytes]]:
    """Random 4 KB ops over the footprint, ``READ_PCT`` % of them reads.

    Returns ``(offsets, writes, payloads)``: op ``i`` accesses byte
    offset ``offsets[i]`` and writes if ``writes[i]``, and
    ``payloads[page]`` is the content preloaded on every device page.
    The op stream is stored compactly (8 bytes per offset, one shared
    bool per flag) so the benchmark's own data stays a small share of
    ``peak_rss_mb``.
    """
    rng = random.Random(stream_seed(seed, "dax-ops"))
    offsets = array("q")
    writes: list[bool] = []
    for _ in range(nops):
        offsets.append(rng.randrange(footprint_pages) * PAGE_4K)
        writes.append(rng.randrange(100) >= READ_PCT)
    return offsets, writes, [payload(seed, page)
                             for page in range(device_pages)]


def fleet_config(seed: int, requests: int, shards: int) -> FleetConfig:
    """The quick three-tenant fleet, serial, seeded from ``seed``."""
    return FleetConfig(shards=shards, quick=True, requests=requests,
                       seed=stream_seed(seed, "fleet"), jobs=1)
