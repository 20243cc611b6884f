"""Standard MIDI File (SMF format 0/1) reader and bit-exact canonical writer.

The in-memory model keeps every event needed downstream (notes, tempo,
time signature, program changes) as typed records and everything else as
opaque payloads, so ``parse_midi(write_midi(f)) == f`` event-for-event and
``write_midi`` is canonical byte-for-byte:

* running status is never emitted,
* variable-length quantities are minimal length,
* NoteOff is written with status 0x8n (never as a velocity-0 NoteOn),
* time signatures are written with clocks-per-click 24 and 32nds-per-quarter 8.

Velocity-0 NoteOns exist only on the wire: the parser normalizes them to
NoteOff, and the in-memory invariant is NoteOn velocity >= 1.
SMPTE time divisions are rejected; the rest of the pipeline assumes
ticks-per-quarter timing. So are what the format forbids and later stages
could not use: a tempo of 0, and a channel-message data byte of 0x80 or
above (a pitch, velocity or program past 127).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from .errors import EmoMusicError


class BadHeader(EmoMusicError):
    pass


class TruncatedInput(EmoMusicError):
    pass


class MalformedVlq(EmoMusicError):
    pass


class UnsupportedDivision(EmoMusicError):
    pass


class InvariantViolation(EmoMusicError):
    pass


class BadEvent(EmoMusicError):
    """An event the format forbids: a tempo of 0, or a channel message with a
    data byte of 0x80 or above."""


MAX_VLQ_VALUE = 0x0FFFFFFF  # largest delta encodable in 4 VLQ bytes


@dataclass(frozen=True, slots=True)
class NoteOn:
    channel: int
    pitch: int
    velocity: int  # >= 1 in memory; 0 on the wire means NoteOff


@dataclass(frozen=True, slots=True)
class NoteOff:
    channel: int
    pitch: int
    velocity: int


@dataclass(frozen=True, slots=True)
class SetTempo:
    microseconds_per_quarter: int


@dataclass(frozen=True, slots=True)
class TimeSignature:
    numerator: int
    denominator_pow2: int  # actual denominator is 2 ** denominator_pow2


@dataclass(frozen=True, slots=True)
class ProgramChange:
    channel: int
    program: int


@dataclass(frozen=True, slots=True)
class EndOfTrack:
    pass


@dataclass(frozen=True, slots=True)
class OtherMeta:
    meta_type: int
    data: bytes


@dataclass(frozen=True, slots=True)
class OtherChannel:
    """Any channel-voice or sysex message we do not interpret.

    ``status`` is the full status byte (type nibble + channel, or 0xF0/0xF7
    for sysex); ``data`` is the raw payload.
    """

    status: int
    data: bytes


MidiEvent = (
    NoteOn | NoteOff | SetTempo | TimeSignature | ProgramChange
    | EndOfTrack | OtherMeta | OtherChannel
)


@dataclass(slots=True)
class MidiTrack:
    events: list[tuple[int, MidiEvent]] = field(default_factory=list)  # (delta_ticks, event)


@dataclass(slots=True)
class MidiFile:
    format: int
    division: int  # ticks per quarter note
    tracks: list[MidiTrack] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list, compare=False)


def read_vlq(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one variable-length quantity at ``pos``; return (value, new_pos)."""
    value = 0
    for i in range(4):
        if pos >= len(data):
            raise TruncatedInput("VLQ runs past end of data")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MalformedVlq("VLQ longer than 4 bytes")


def encode_vlq(value: int) -> bytes:
    if value < 0 or value > MAX_VLQ_VALUE:
        raise InvariantViolation(f"delta {value} not encodable as a 4-byte VLQ")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


# payload byte counts for channel-voice messages, by status high nibble
_CHANNEL_DATA_BYTES = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


def _parse_track(chunk: bytes) -> MidiTrack:
    events: list[tuple[int, MidiEvent]] = []
    append = events.append
    size = len(chunk)
    pos = 0
    running_status: int | None = None
    while pos < size:
        delta = chunk[pos]
        if delta < 0x80:  # the one-byte VLQ most deltas are
            pos += 1
        else:
            delta, pos = read_vlq(chunk, pos)
        if pos >= size:
            raise TruncatedInput("event missing after delta time")
        status = chunk[pos]
        if status < 0x80:
            if running_status is None:
                raise TruncatedInput("data byte with no running status")
            status = running_status
        else:
            pos += 1

        if status == 0xFF:
            running_status = None  # meta events clear running status
            if pos >= size:
                raise TruncatedInput("meta event missing type byte")
            meta_type = chunk[pos]
            length, pos = read_vlq(chunk, pos + 1)
            if pos + length > size:
                raise TruncatedInput("meta payload exceeds track chunk")
            append((delta, _decode_meta(meta_type, chunk[pos:pos + length])))
            pos += length
            if meta_type == 0x2F:
                break
        elif status in (0xF0, 0xF7):
            running_status = None
            length, pos = read_vlq(chunk, pos)
            if pos + length > size:
                raise TruncatedInput("sysex payload exceeds track chunk")
            append((delta, OtherChannel(status, chunk[pos:pos + length])))
            pos += length
        else:
            running_status = status
            n = _CHANNEL_DATA_BYTES.get(status & 0xF0)
            if n is None:
                raise TruncatedInput(f"unknown status byte 0x{status:02X}")
            if pos + n > size:
                raise TruncatedInput("channel event payload exceeds track chunk")
            first, last = chunk[pos], chunk[pos + n - 1]
            if (first | last) & 0x80:
                bad = first if first & 0x80 else last
                raise BadEvent(f"data byte 0x{bad:02X} in a 0x{status:02X} message "
                               f"at byte {pos} of its track")
            kind = status & 0xF0
            if kind == 0x90:
                append((delta, NoteOn(status & 0x0F, first, last) if last
                        else NoteOff(status & 0x0F, first, 0)))
            elif kind == 0x80:
                append((delta, NoteOff(status & 0x0F, first, last)))
            elif kind == 0xC0:
                append((delta, ProgramChange(status & 0x0F, first)))
            else:
                append((delta, OtherChannel(status, chunk[pos:pos + n])))
            pos += n

    if not events or not isinstance(events[-1][1], EndOfTrack):
        append((0, EndOfTrack()))
    return MidiTrack(events)


def _decode_meta(meta_type: int, payload: bytes) -> MidiEvent:
    if meta_type == 0x2F:
        return EndOfTrack()
    if meta_type == 0x51 and len(payload) == 3:
        tempo = int.from_bytes(payload, "big")
        if not tempo:
            raise BadEvent("set-tempo event with a tempo of 0 microseconds per quarter")
        return SetTempo(tempo)
    if meta_type == 0x58 and len(payload) == 4:
        return TimeSignature(payload[0], payload[1])
    return OtherMeta(meta_type, payload)


def parse_midi(data: bytes) -> MidiFile:
    """Decode an SMF byte string into a :class:`MidiFile`.

    Unknown chunk types are skipped and recorded in ``MidiFile.warnings``.
    Event order and delta times are preserved exactly.
    """
    if len(data) < 14 or data[0:4] != b"MThd":
        raise BadHeader("input does not start with an MThd chunk")
    header_len = struct.unpack(">I", data[4:8])[0]
    if header_len != 6:
        raise BadHeader(f"MThd length {header_len}, expected 6")
    fmt, ntrks, division = struct.unpack(">HHH", data[8:14])
    if fmt not in (0, 1):
        raise BadHeader(f"unsupported SMF format {fmt}")
    if division & 0x8000:
        raise UnsupportedDivision("SMPTE time division is not supported")
    if division == 0:
        raise BadHeader("division must be positive")

    midi = MidiFile(format=fmt, division=division)
    pos = 14
    while pos < len(data) and len(midi.tracks) < ntrks:
        if pos + 8 > len(data):
            raise TruncatedInput("chunk header runs past end of input")
        tag = data[pos:pos + 4]
        length = struct.unpack(">I", data[pos + 4:pos + 8])[0]
        pos += 8
        if pos + length > len(data):
            raise TruncatedInput(f"chunk {tag!r} length {length} exceeds remaining bytes")
        chunk = data[pos:pos + length]
        pos += length
        if tag == b"MTrk":
            midi.tracks.append(_parse_track(chunk))
        else:
            midi.warnings.append(f"skipped unknown chunk {tag!r} ({length} bytes)")

    if len(midi.tracks) != ntrks:
        raise TruncatedInput(f"header declares {ntrks} tracks, found {len(midi.tracks)}")
    if fmt == 0 and ntrks != 1:
        raise BadHeader("format 0 requires exactly one track")
    return midi


def _check_7bit(event: MidiEvent, *values: int) -> None:
    for v in values:
        if not 0 <= v <= 127:
            raise InvariantViolation(f"{event} has a data byte outside 0..127")


def _encode_event(event: MidiEvent) -> bytes:
    if isinstance(event, NoteOn):
        _check_7bit(event, event.pitch, event.velocity)
        if event.velocity == 0:
            # canonical form: wire NoteOff, round-trips as NoteOff
            return bytes((0x80 | (event.channel & 0x0F), event.pitch, 0))
        return bytes((0x90 | (event.channel & 0x0F), event.pitch, event.velocity))
    if isinstance(event, NoteOff):
        _check_7bit(event, event.pitch, event.velocity)
        return bytes((0x80 | (event.channel & 0x0F), event.pitch, event.velocity))
    if isinstance(event, SetTempo):
        if not 1 <= event.microseconds_per_quarter <= 0xFFFFFF:
            raise InvariantViolation("tempo out of 24-bit range")
        return b"\xff\x51\x03" + event.microseconds_per_quarter.to_bytes(3, "big")
    if isinstance(event, TimeSignature):
        return bytes((0xFF, 0x58, 0x04, event.numerator, event.denominator_pow2, 24, 8))
    if isinstance(event, ProgramChange):
        _check_7bit(event, event.program)
        return bytes((0xC0 | (event.channel & 0x0F), event.program))
    if isinstance(event, EndOfTrack):
        return b"\xff\x2f\x00"
    if isinstance(event, OtherMeta):
        return bytes((0xFF, event.meta_type)) + encode_vlq(len(event.data)) + event.data
    if isinstance(event, OtherChannel):
        if event.status in (0xF0, 0xF7):
            return bytes((event.status,)) + encode_vlq(len(event.data)) + event.data
        n = _CHANNEL_DATA_BYTES.get(event.status & 0xF0)
        if n is None or n != len(event.data):
            raise InvariantViolation(f"payload length does not match status 0x{event.status:02X}")
        _check_7bit(event, *event.data)
        return bytes((event.status,)) + event.data
    raise InvariantViolation(f"unknown event type {type(event).__name__}")


def write_midi(midi: MidiFile) -> bytes:
    """Serialize canonically; inverse of :func:`parse_midi` on valid files."""
    if midi.division <= 0 or midi.division & 0x8000:
        raise InvariantViolation("division must be a positive ticks-per-quarter value")
    if midi.format not in (0, 1):
        raise InvariantViolation(f"unsupported format {midi.format}")
    if midi.format == 0 and len(midi.tracks) != 1:
        raise InvariantViolation("format 0 requires exactly one track")

    out = bytearray()
    out += b"MThd" + struct.pack(">IHHH", 6, midi.format, len(midi.tracks), midi.division)
    for track in midi.tracks:
        if not track.events or not isinstance(track.events[-1][1], EndOfTrack):
            raise InvariantViolation("track does not end with EndOfTrack")
        body = bytearray()
        for delta, event in track.events:
            body += encode_vlq(delta)
            body += _encode_event(event)
        out += b"MTrk" + struct.pack(">I", len(body)) + bytes(body)
    return bytes(out)
