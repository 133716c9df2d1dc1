"""The two ends of one client's atlas stream: the server's and the thin client's.

`ServerStream` turns each render of one atlas into a message for one
client: `selection.detect_changed` -> `selection.select_for_client`, with
the slot count as the budget -> `packing.build_update_atlas` ->
`packing.pack_texels` -> `codec.encode_frame` -> `EncodedFrame.to_bytes`.
It then copies the sent blocks into its last-sent atlas, records when each
probe was sent, and appends the ids. The update atlas persists across
updates in the planes' own layout, so `pack_texels` is a read-only view of
it: `ServerUpdate.planes` is valid until that stream's next update, which
rewrites the slots of its entries in place. `ClientStream` reverses this:
`EncodedFrame.read` -> `codec.decode_frame` -> `packing.unpack_texels` ->
its twin `UpdateAtlasLayout.assign` -> `packing.apply_update_entries` into
its atlas. The twin layout replays the server's slot assignments from the
ids alone, so after every message the client's atlas equals the server's
last-sent atlas.

Message layout: the frame's bytes, then the selected probe ids as ``<u2``
in the order they were selected (staleness order, not sorted), then the
CRC-32 of the id bytes as ``<u4``. The codec reads the frame and finds
where it ends (`EncodedFrame.read`). An id names one of at most
`MAX_PROBES` probes.

Fail-closed rule: before its decoder, its twin layout or its atlas moves,
the client checks the frame (`EncodedFrame.read`: its magic, its length
against its header, its CRC, its flags and its layout), the ids' CRC, an
even id length, every id inside the volume, no id twice, no more ids than
slots, and the frame's kind and plane size against its own. A frame that
passes these checks and decodes can still hold a colour element above 10
bits, so the frame is decoded into a copy of the decoder, which the client
keeps only once the frame unpacks. That 10-bit check is
`packing.unpack_texels`'s alone, over every element of the colour planes,
slots that no entry reads included; otherwise the unpacked texels are a
read-only view of the decoded planes, which `packing.apply_update_entries`
converts without checking again. Any bad message raises `CodecError`
(`MessageError`, or the codec's own subclasses) and leaves the client as
it was.

Every step runs through ``call(name, fn, *args)``, named after the
benchmark metric it feeds; by default it calls straight through.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, replace

import numpy as np

from probestream.codec import CodecError, CodecStreamState, EncodedFrame, decode_frame, encode_frame
from probestream.packing import (
    PlaneSet,
    UpdateAtlasLayout,
    apply_update_entries,
    build_update_atlas,
    pack_texels,
    unpack_texels,
)
from probestream.selection import detect_changed, select_for_client
from probestream.volume import AtlasKind, ProbeAtlas, ProbeVolume

ID_DTYPE = np.dtype("<u2")
MAX_PROBES = 1 << 16  # every probe id fits in ID_DTYPE
_ID_CHECKSUM = struct.Struct("<I")


class MessageError(CodecError):
    pass


def _call(name: str, fn, *args):
    return fn(*args)


def _check_probe_count(probe_count: int) -> None:
    if probe_count > MAX_PROBES:
        raise ValueError(f"{probe_count} probes: ids on the wire address at most {MAX_PROBES}")


@dataclass
class ServerUpdate:
    """One update of a `ServerStream`: the message and what went into it.
    `planes` views the stream's update atlas and is valid until the stream's
    next update; copy it to keep it."""

    message: bytes
    changed: np.ndarray
    selected: list[int]
    entries: list[tuple[int, int]]
    planes: PlaneSet
    frame: EncodedFrame


class ServerStream:
    """The server's state for one client's stream of one atlas, `source`,
    which the renderer rewrites between updates."""

    def __init__(self, source: ProbeAtlas, slots: int, gop: int, stream_id: int, call=_call) -> None:
        _check_probe_count(source.probe_count)
        self.source = source
        self.call = call
        self.layout = UpdateAtlasLayout(slots, source.kind.core_side)
        self.encoder = CodecStreamState(stream_id, "encoder", gop)
        self.update_texels: np.ndarray | None = None
        self.last_sent = ProbeAtlas(source.kind, source.probe_count, source.probes_per_row)
        # never-sent probes are the stalest: every sent probe has seq >= 0
        self.last_sent_seq = np.full(source.probe_count, -1, dtype=np.int64)

    def update(self, volume: ProbeVolume, pvs: np.ndarray, seq: int) -> ServerUpdate:
        """The message of the changed probes of `pvs`, at most one per slot, stalest first."""
        call, kind = self.call, self.source.kind
        changed = call("selection.detect_ms", detect_changed, self.source, self.last_sent, volume)
        selected = call(
            "selection.select_ms", select_for_client,
            changed, pvs, volume, self.last_sent_seq, seq, self.layout.slot_count,
        )
        self.update_texels, entries = call(
            f"packing.build_ms.{kind.value}", build_update_atlas,
            selected, self.layout, self.source, self.update_texels,
        )
        planes = call(f"packing.pack_ms.{kind.value}", pack_texels, self.update_texels, kind)
        frame = call(f"codec.encode_ms.{kind.value}", encode_frame, planes, self.encoder)
        data = call("codec.serialize_ms", frame.to_bytes)
        message = call("glue.server_ms", self._commit, data, selected, seq)
        return ServerUpdate(message, changed, selected, entries, planes, frame)

    def _commit(self, data: bytes, selected: list[int], seq: int) -> bytes:
        """Remember what was sent, and append the ids and their CRC to the frame."""
        index = self.source.block_index(selected)
        self.last_sent.blocks()[index] = self.source.blocks()[index]
        self.last_sent_seq[selected] = seq
        ids = np.asarray(selected, dtype=ID_DTYPE).tobytes()
        return data + ids + _ID_CHECKSUM.pack(zlib.crc32(ids))


class ClientStream:
    """The thin client's state for one stream: the decoder, the twin slot
    layout and the atlas that the messages rebuild."""

    def __init__(
        self, kind: AtlasKind, probe_count: int, probes_per_row: int, slots: int, stream_id: int, call=_call
    ) -> None:
        _check_probe_count(probe_count)
        self.kind = kind
        self.call = call
        self.twin = UpdateAtlasLayout(slots, kind.core_side)
        self.decoder = CodecStreamState(stream_id, "decoder")
        self.atlas = ProbeAtlas(kind, probe_count, probes_per_row)
        planes = UpdateAtlasLayout.plane_shape(kind, self.twin.height, self.twin.width)
        self._frame_layout = (kind, planes)

    def receive(self, message: bytes) -> tuple[PlaneSet, list[tuple[int, int]]]:
        """Apply one message; returns the decoded planes and the (slot, probe) entries."""
        call, kind = self.call, self.kind
        frame, ids = call("codec.parse_ms", self._parse, message)
        decoder = replace(self.decoder)
        planes = call(f"codec.decode_ms.{kind.value}", decode_frame, frame, decoder)
        try:
            texels = call(f"packing.unpack_ms.{kind.value}", unpack_texels, planes, kind, self.twin.width)
        except ValueError as err:
            raise MessageError(f"frame does not unpack: {err}") from err
        self.decoder = decoder
        entries = call(f"packing.assign_ms.{kind.value}", self.twin.assign, ids)
        call(f"packing.apply_ms.{kind.value}", apply_update_entries, entries, texels, self.twin, self.atlas)
        return planes, entries

    def _parse(self, message: bytes) -> tuple[EncodedFrame, list[int]]:
        """The frame and the ids of a message, every check but unpacking done."""
        frame = EncodedFrame.read(message)
        end = frame.encoded_size
        if len(message) < end + _ID_CHECKSUM.size:
            raise MessageError(f"message of {len(message)} bytes holds no id checksum after its frame")
        raw = message[end : -_ID_CHECKSUM.size]
        if zlib.crc32(raw) != _ID_CHECKSUM.unpack_from(message, len(message) - _ID_CHECKSUM.size)[0]:
            raise MessageError("id checksum mismatch")
        if len(raw) % ID_DTYPE.itemsize:
            raise MessageError(f"{len(raw)} id bytes are not whole ids")
        ids = np.frombuffer(raw, ID_DTYPE)
        if ids.size and ids.max() >= self.atlas.probe_count:
            raise MessageError(f"probe id outside [0, {self.atlas.probe_count})")
        ids = ids.tolist()
        if len(set(ids)) != len(ids):
            raise MessageError("probe id sent twice")
        if len(ids) > self.twin.slot_count:
            raise MessageError(f"{len(ids)} ids for {self.twin.slot_count} slots")
        if (frame.plane_kind, (frame.plane_count, frame.height, frame.width)) != self._frame_layout:
            raise MessageError("frame layout does not match the stream")
        return frame, ids
