"""The on-media record format of the PWB (NVM) and Value Storage (SSD).

Both hold the same record (§4.3, §5.1): ``[backward pointer (8B)]
[size (4B)][value]``, the per-value metadata recovery trusts only when
the backward pointer names the HSIT entry pointing at the record.  With
checksums on the header grows a CRC32 over the plain header and the
value — ``[backward pointer (8B)][size (4B)][crc32 (4B)][value]`` — and
every parse verifies it, raising a typed :class:`CorruptionError` that
names the device and the location.  This module is the format's one
definition; nothing else slices a header.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple

from repro.faults.errors import CorruptionError

PLAIN = struct.Struct("<QI")  # backward pointer, value size
CHECKED = struct.Struct("<QII")  # backward pointer, value size, CRC32
RECORD_HEADER = PLAIN.size  # 12
CHECKED_RECORD_HEADER = CHECKED.size  # 16


def record_crc(header12: bytes, value: bytes) -> int:
    """CRC32 over the plain header (backptr + size) and the value."""
    return zlib.crc32(value, zlib.crc32(header12))


def frame(hsit_idx: int, value: bytes, checked: bool) -> bytes:
    """One on-media record: header (with its CRC when ``checked``) + value."""
    size = len(value)
    if not checked:
        return PLAIN.pack(hsit_idx, size) + value
    crc = record_crc(PLAIN.pack(hsit_idx, size), value)
    return CHECKED.pack(hsit_idx, size, crc) + value


def verify(header: bytes, value: bytes, device: str, where: str) -> None:
    """Check a checked ``header`` against the ``value`` loaded after it."""
    _, size, stored = CHECKED.unpack_from(header)
    if len(value) != size or record_crc(header[:RECORD_HEADER], value) != stored:
        raise CorruptionError(device, where)


def parse(raw: bytes, checked: bool, device: str, where: str = "") -> Tuple[int, bytes]:
    """Split a whole record into (backward pointer, value); a checked one
    is verified first (a size past the end of ``raw`` fails too)."""
    back, size = PLAIN.unpack_from(raw)
    if not checked:
        return back, raw[RECORD_HEADER : RECORD_HEADER + size]
    value = raw[CHECKED_RECORD_HEADER : CHECKED_RECORD_HEADER + size]
    verify(raw, value, device, where)
    return back, value
