"""Forward-pointer encoding for HSIT entries.

An HSIT entry packs the value's location into 16 bytes (§4.5): one
8-byte word locates the durable copy (PWB or Value Storage — a value
lives in exactly one of them), the other holds the SVC cache pointer.
The location word is the unit of the atomic-CAS / flush-on-read
protocol, so all of its state fits in 64 bits:

    bit  63      dirty (written but possibly not yet flushed)
    bits 61..62  medium: 0 = null, 1 = PWB, 2 = Value Storage
    PWB:         bits 48..60 buffer id, bits 0..47 byte offset
    VS:          bits 53..60 storage id, bits 32..52 chunk id,
                 bits 0..31 record offset within the chunk
    null:        bits 0..47 free-list link (HSIT index + 1, 0 = end)
"""

from __future__ import annotations

DIRTY_BIT = 1 << 63
_MEDIUM_SHIFT = 61
_MEDIUM_MASK = 0b11 << _MEDIUM_SHIFT

MEDIUM_NULL = 0
MEDIUM_PWB = 1
MEDIUM_VS = 2

_OFFSET48 = (1 << 48) - 1
_PWB_ID_MAX = (1 << 13) - 1
_VS_ID_MAX = (1 << 8) - 1
_CHUNK_MAX = (1 << 21) - 1
_OFFSET32 = (1 << 32) - 1

# Public word-level constants: hot paths (publish/supersede, the
# reclaimer's well-coupledness check) test and extract fields straight
# off the 64-bit word instead of decoding a Location per pointer.
MEDIUM_MASK = _MEDIUM_MASK
MEDIUM_PWB_BITS = MEDIUM_PWB << _MEDIUM_SHIFT
MEDIUM_VS_BITS = MEDIUM_VS << _MEDIUM_SHIFT
VS_ID_SHIFT = 53
VS_ID_MASK = _VS_ID_MAX
VS_CHUNK_SHIFT = 32
VS_CHUNK_MASK = _CHUNK_MAX
VS_OFFSET_MASK = _OFFSET32
PWB_ID_SHIFT = 48
PWB_ID_MASK = _PWB_ID_MAX
PWB_OFFSET_MASK = _OFFSET48


class Location:
    """Decoded forward pointer.

    A plain ``__slots__`` class rather than a frozen dataclass: one is
    built on every pointer read/publish, and frozen-dataclass
    construction (an ``object.__setattr__`` per field) dominated the
    cost of :func:`decode`.  Instances are immutable by convention.
    """

    __slots__ = ("medium", "pwb_id", "pwb_offset", "vs_id", "chunk_id", "vs_offset")

    def __init__(
        self,
        medium: int,
        pwb_id: int = 0,
        pwb_offset: int = 0,
        vs_id: int = 0,
        chunk_id: int = 0,
        vs_offset: int = 0,
    ) -> None:
        self.medium = medium
        self.pwb_id = pwb_id
        self.pwb_offset = pwb_offset
        self.vs_id = vs_id
        self.chunk_id = chunk_id
        self.vs_offset = vs_offset

    @property
    def is_null(self) -> bool:
        return self.medium == MEDIUM_NULL

    @property
    def in_pwb(self) -> bool:
        return self.medium == MEDIUM_PWB

    @property
    def in_vs(self) -> bool:
        return self.medium == MEDIUM_VS

    def _key(self):
        return (
            self.medium,
            self.pwb_id,
            self.pwb_offset,
            self.vs_id,
            self.chunk_id,
            self.vs_offset,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Location):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Location(medium={self.medium}, pwb_id={self.pwb_id}, "
            f"pwb_offset={self.pwb_offset}, vs_id={self.vs_id}, "
            f"chunk_id={self.chunk_id}, vs_offset={self.vs_offset})"
        )


NULL_LOCATION = Location(medium=MEDIUM_NULL)


def encode_pwb(pwb_id: int, offset: int) -> int:
    if not 0 <= pwb_id <= _PWB_ID_MAX:
        raise ValueError(f"pwb id out of range: {pwb_id}")
    if not 0 <= offset <= _OFFSET48:
        raise ValueError(f"pwb offset out of range: {offset}")
    return (MEDIUM_PWB << _MEDIUM_SHIFT) | (pwb_id << 48) | offset


def encode_vs(vs_id: int, chunk_id: int, offset: int) -> int:
    if not 0 <= vs_id <= _VS_ID_MAX:
        raise ValueError(f"vs id out of range: {vs_id}")
    if not 0 <= chunk_id <= _CHUNK_MAX:
        raise ValueError(f"chunk id out of range: {chunk_id}")
    if not 0 <= offset <= _OFFSET32:
        raise ValueError(f"vs offset out of range: {offset}")
    return (
        (MEDIUM_VS << _MEDIUM_SHIFT)
        | (vs_id << 53)
        | (chunk_id << 32)
        | offset
    )


def encode_free_link(next_idx_plus_one: int) -> int:
    if not 0 <= next_idx_plus_one <= _OFFSET48:
        raise ValueError(f"free link out of range: {next_idx_plus_one}")
    return next_idx_plus_one  # medium bits are zero: null


def set_dirty(word: int) -> int:
    return word | DIRTY_BIT


def clear_dirty(word: int) -> int:
    return word & ~DIRTY_BIT


def is_dirty(word: int) -> bool:
    return bool(word & DIRTY_BIT)


def free_link_of(word: int) -> int:
    """Free-list link stored in a null word (index + 1, 0 = end)."""
    return word & _OFFSET48


def decode(word: int) -> Location:
    """Decode a location word (ignoring the dirty bit).

    Locations are built via ``__new__`` + direct slot stores: decode()
    runs on every pointer read and the ``__init__`` call (with its
    default-argument handling) was a measurable share of it.
    """
    medium = (word & _MEDIUM_MASK) >> _MEDIUM_SHIFT
    if medium == MEDIUM_NULL:
        return NULL_LOCATION
    loc = Location.__new__(Location)
    loc.medium = medium
    if medium == MEDIUM_PWB:
        loc.pwb_id = (word >> 48) & _PWB_ID_MAX
        loc.pwb_offset = word & _OFFSET48
        loc.vs_id = 0
        loc.chunk_id = 0
        loc.vs_offset = 0
        return loc
    if medium == MEDIUM_VS:
        loc.pwb_id = 0
        loc.pwb_offset = 0
        loc.vs_id = (word >> 53) & _VS_ID_MAX
        loc.chunk_id = (word >> 32) & _CHUNK_MAX
        loc.vs_offset = word & _OFFSET32
        return loc
    raise ValueError(f"corrupt location word: {word:#018x}")


def encode(loc: Location) -> int:
    if loc.is_null:
        return 0
    if loc.in_pwb:
        return encode_pwb(loc.pwb_id, loc.pwb_offset)
    return encode_vs(loc.vs_id, loc.chunk_id, loc.vs_offset)
