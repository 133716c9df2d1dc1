"""One server and one thin client, driven through the library's public calls.

Per update the server runs, for the colour and the visibility stream:
`detect_changed` -> `pvs_probes` (shared) -> `select_for_client` ->
`build_update_atlas` -> `pack_texels` -> `encode_frame` ->
`EncodedFrame.to_bytes`, then its own bookkeeping (the "glue": copy the sent
blocks into the last-sent atlas, update staleness, serialise the probe ids).
The client runs `EncodedFrame.from_bytes` -> `decode_frame` ->
`unpack_texels` -> twin `UpdateAtlasLayout.assign` replay ->
`apply_update_entries`.

Every call is timed from the outside. With tracing on, each call also leaves
a span named after the per-layer metric it feeds. `Session.check` runs
after the clock has stopped and compares the client with the server.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from probestream.codec import CodecStreamState, EncodedFrame, decode_frame, encode_frame
from probestream.packing import (
    UpdateAtlasLayout,
    apply_update_entries,
    build_update_atlas,
    pack_texels,
    unpack_texels,
)
from probestream.selection import (
    SelectionParams,
    detect_changed,
    pvs_probes,
    pvs_rays,
    select_for_client,
)
from probestream.volume import ProbeAtlas

from workload import Scene, block_view

ID_DTYPE = np.dtype("<u2")  # probe ids on the wire; volumes stay below 65536 probes
MIN_SPAN_COVERAGE = 0.95  # share of each update's wall time the spans must cover


class Tracer:
    """Span recorder; when disabled it only calls through."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[tuple[str, float, float]] = []

    def call(self, name: str, fn, *args):
        if not self.enabled:
            return fn(*args)
        t0 = perf_counter()
        out = fn(*args)
        self.spans.append((name, t0, perf_counter()))
        return out

    def take(self) -> list[tuple[str, float, float]]:
        spans, self.spans = self.spans, []
        return spans


class StreamState:
    """Server and client state of one atlas stream."""

    def __init__(self, name: str, source: ProbeAtlas, slots: int, gop: int, stream_id: int) -> None:
        self.name = name
        self.kind = source.kind
        self.source = source  # the server's atlas, rewritten by the renderer
        core = self.kind.core_side
        self.layout = UpdateAtlasLayout(slots, core)
        self.twin = UpdateAtlasLayout(slots, core)
        self.encoder = CodecStreamState(stream_id, "encoder", gop)
        self.decoder = CodecStreamState(stream_id, "decoder", gop)
        self.update_texels: np.ndarray | None = None
        self.last_sent = ProbeAtlas(self.kind, source.probe_count, source.probes_per_row)
        self.client = ProbeAtlas(self.kind, source.probe_count, source.probes_per_row)
        # never-sent probes are the stalest: every sent probe has seq >= 0
        self.last_sent_seq = np.full(source.probe_count, -1, dtype=np.int64)
        self.slots_before: set[int] = set()  # layout's probes after the previous update


@dataclass
class Update:
    """What one update did, as seen from outside the library."""

    seq: int
    server_s: float
    client_s: float
    wire: list[bytes]  # per stream: frame bytes, then the serialised id list
    frames: dict[str, EncodedFrame]
    selected: dict[str, list[int]]
    packed: dict = field(repr=False)
    decoded: dict = field(repr=False)
    entries: dict
    client_entries: dict
    changed: dict[str, np.ndarray]
    pvs: np.ndarray
    spans: list[tuple[str, float, float]]

    @property
    def update_s(self) -> float:
        return self.server_s + self.client_s

    @property
    def wire_bytes(self) -> int:
        return sum(len(b) for b in self.wire)


class Session:
    """Scene, server and client for one workload, ready for update 0."""

    def __init__(self, scene: Scene, trace: bool) -> None:
        self.scene = scene
        self.params = SelectionParams()
        self.budget = scene.slots
        self.streams = [
            StreamState(name, atlas, scene.slots, scene.workload.gop, i)
            for i, (name, atlas) in enumerate((("color", scene.color), ("visibility", scene.visibility)))
        ]
        self.tracer = Tracer(trace)

    def update(self, seq: int) -> Update:
        """Run one server update and the client's handling of it."""
        call = self.tracer.call
        scene = self.scene
        pose = scene.pose(seq)
        wire, frames, selected, packed, entries, changed = [], {}, {}, {}, {}, {}

        t0 = perf_counter()
        for s in self.streams:
            changed[s.name] = call(
                "selection.detect_ms", detect_changed, s.source, s.last_sent, scene.volume
            )
        pvs = call("selection.pvs_ms", pvs_probes, pose, scene.geometry, scene.volume, self.params)
        for s in self.streams:
            sel = call(
                "selection.select_ms", select_for_client,
                changed[s.name], pvs, scene.volume, s.last_sent_seq, seq, self.budget,
            )
            s.update_texels, ents = call(
                f"packing.build_ms.{s.name}", build_update_atlas, sel, s.layout, s.source, s.update_texels
            )
            planes = call(f"packing.pack_ms.{s.name}", pack_texels, s.update_texels, s.kind)
            frame = call(f"codec.encode_ms.{s.name}", encode_frame, planes, s.encoder)
            data = call("codec.serialize_ms", frame.to_bytes)
            ids = call("glue.server_ms", _commit, s, sel, seq)
            wire += [data, ids]
            frames[s.name], selected[s.name], packed[s.name], entries[s.name] = frame, sel, planes, ents
        t1 = perf_counter()

        decoded, client_entries = {}, {}
        for s, data, ids in zip(self.streams, wire[0::2], wire[1::2]):
            frame = call("codec.parse_ms", EncodedFrame.from_bytes, data)
            planes = call(f"codec.decode_ms.{s.name}", decode_frame, frame, s.decoder)
            texels = call(
                f"packing.unpack_ms.{s.name}", unpack_texels, planes, s.kind, s.twin.width
            )
            ents = call(f"packing.assign_ms.{s.name}", _replay, s.twin, ids)
            call(f"packing.apply_ms.{s.name}", apply_update_entries, ents, texels, s.twin, s.client)
            decoded[s.name], client_entries[s.name] = planes, ents
        t2 = perf_counter()

        return Update(
            seq, t1 - t0, t2 - t1, wire, frames, selected, packed, decoded,
            entries, client_entries, changed, pvs, self.tracer.take(),
        )

    def check(self, u: Update) -> list[str]:
        """Client-versus-server checks, run with the clock stopped."""
        problems = []
        for s in self.streams:
            if not u.packed[s.name].equals(u.decoded[s.name]):
                problems.append(f"{s.name}: decoded planes differ from packed planes")
            if u.entries[s.name] != u.client_entries[s.name]:
                problems.append(f"{s.name}: client slot entries differ from the server's")
            if not np.array_equal(s.client.texels, s.last_sent.texels):
                problems.append(f"{s.name}: client atlas differs from the last-sent atlas")
        return problems

    def counters(self, u: Update) -> tuple[dict[str, float], list[str]]:
        """Per-layer counts of one update and the consistency checks on them.

        Slot counts compare the layout's `probe_slot` with the copy taken
        after the previous update, so no bookkeeping runs on the clock.
        """
        c: dict[str, float] = {
            "selection.rays": float(len(pvs_rays(self.scene.pose(u.seq), self.params))),
            "selection.pvs_probes": float(len(u.pvs)),
            "packing.slot_hits": 0.0,
            "packing.slot_new": 0.0,
            "packing.slot_evictions": 0.0,
            "packing.selected_bytes": 0.0,
            "packing.core_bytes": 0.0,
            "packing.plane_bytes": 0.0,
            "codec.key_frames": 0.0,
        }
        problems = []
        pvs = set(u.pvs.tolist())
        for s in self.streams:
            sel = u.selected[s.name]
            sendable = pvs & set(u.changed[s.name].tolist())
            before = s.slots_before
            after = set(s.layout.probe_slot)
            hits = len(before & set(sel))
            frame = u.frames[s.name]
            c[f"selection.changed_probes.{s.name}"] = float(len(u.changed[s.name]))
            c[f"selection.selected_probes.{s.name}"] = float(len(sel))
            c[f"selection.deferred_probes.{s.name}"] = float(len(sendable) - len(sel))
            c["packing.slot_hits"] += hits
            c["packing.slot_new"] += len(after - before)
            c["packing.slot_evictions"] += len(before - after)
            texel_bytes = s.kind.bits_per_texel // 8
            c["packing.selected_bytes"] += len(sel) * s.kind.block_side**2 * texel_bytes
            c["packing.core_bytes"] += len(sel) * s.kind.core_side**2 * texel_bytes
            c[f"packing.plane_bytes.{s.name}"] = float(u.packed[s.name].data.nbytes)
            c["packing.plane_bytes"] += u.packed[s.name].data.nbytes
            c[f"codec.frame_bytes.{s.name}"] = float(frame.encoded_size)
            c["codec.key_frames"] += frame.key
            s.slots_before = after
            if len(sel) > self.budget:
                problems.append(f"{s.name}: {len(sel)} selected over budget {self.budget}")
            if not set(sel) <= sendable or len(sel) != min(len(sendable), self.budget):
                problems.append(f"{s.name}: changed & pvs != selected + deferred")
            if hits + len(after - before) != len(sel):
                problems.append(f"{s.name}: slot hits + new slots != selected")
        if self.tracer.enabled:
            covered = sum(t1 - t0 for _, t0, t1 in u.spans) / u.update_s
            if covered < MIN_SPAN_COVERAGE:
                problems.append(f"spans cover only {100 * covered:.1f}% of the update")
        frame_total = c["codec.frame_bytes.color"] + c["codec.frame_bytes.visibility"]
        id_bytes = sum(len(b) for b in u.wire[1::2])
        if frame_total != u.wire_bytes - id_bytes:
            problems.append("codec frame bytes do not add up to the wire bytes")
        return c, problems


def _commit(s: StreamState, selected: list[int], seq: int) -> bytes:
    """Server glue: remember what was sent and serialise the id list."""
    ids = np.asarray(selected, dtype=np.int64)
    rows, cols = np.divmod(ids, s.source.probes_per_row)
    block_view(s.last_sent)[rows, :, cols] = block_view(s.source)[rows, :, cols]
    s.last_sent_seq[ids] = seq
    return ids.astype(ID_DTYPE).tobytes()


def _replay(layout: UpdateAtlasLayout, ids: bytes):
    return layout.assign(np.frombuffer(ids, dtype=ID_DTYPE).tolist())
