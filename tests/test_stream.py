"""End to end: `stream.ServerStream` and `stream.ClientStream` on random
renders, poses and scenes, and beside the benchmark harness's own stream.

Every update must leave the client's planes, entries and atlas equal to the
server's. A damaged message must raise `CodecError` and leave the client as
it was, so that the intact message still applies afterwards.
"""

import dataclasses
import importlib
import json
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probestream.codec import BLOCK_SIDE, CodecError, encode_frame
from probestream.packing import PlaneSet, reconstruct_guard_band
from probestream.selection import CameraPose, SceneGeometry, SelectionParams, pvs_probes
from probestream.stream import ClientStream, MessageError, ServerStream
from probestream.volume import AtlasKind, ProbeAtlas, ProbeVolume

PARAMS = SelectionParams(sphere_rays=64, raster_cols=8, raster_rows=8)
ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = ROOT / "BENCHMARK.json"


def render(atlas: ProbeAtlas, ids: np.ndarray, rng) -> None:
    """Write random cores, with their guard bands, into the blocks of `ids`."""
    side = atlas.kind.core_side
    if atlas.kind is AtlasKind.COLOR:
        cores = rng.integers(0, 1 << 30, size=(side, side, len(ids)), dtype=np.uint32)
    else:
        cores = rng.integers(0, 1 << 16, size=(side, side, 2, len(ids)), dtype=np.uint16)
    atlas.blocks()[atlas.block_index(ids)] = np.moveaxis(reconstruct_guard_band(cores), -1, 0)


def random_pose(volume: ProbeVolume, rng) -> CameraPose:
    lo, hi = volume.bounds
    forward = rng.normal(size=3)
    while np.linalg.norm(forward) < 1e-3:
        forward = rng.normal(size=3)
    return CameraPose(rng.uniform(lo - 1.0, hi + 1.0), forward)


def random_boxes(volume: ProbeVolume, count: int, rng) -> np.ndarray:
    lo, hi = volume.bounds
    centres = rng.uniform(lo, hi, size=(count, 3))
    half = rng.uniform(0.2, 1.0, size=(count, 3))
    return np.stack([centres - half, centres + half], axis=1)


@st.composite
def sessions(draw):
    dims = (draw(st.integers(2, 4)), draw(st.integers(1, 3)), draw(st.integers(2, 4)))
    return dict(
        dims=dims,
        slots=draw(st.integers(1, dims[0] * dims[1] * dims[2])),
        gop=draw(st.integers(1, 4)),
        updates=draw(st.integers(4, 9)),
        boxes=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


def serve(case, **hook):
    """Per update and stream, re-rendering 40% of the probes between updates:
    the server, its client and the server's update. `hook` passes `call` on
    to both ends."""
    rng = np.random.default_rng(case["seed"])
    volume = ProbeVolume(case["dims"])
    n = volume.probe_count
    geometry = SceneGeometry(random_boxes(volume, case["boxes"], rng))
    ends = []
    for stream_id, kind in enumerate(AtlasKind):
        source = ProbeAtlas(kind, n)
        render(source, np.arange(n), rng)
        ends.append((
            ServerStream(source, case["slots"], case["gop"], stream_id, **hook),
            ClientStream(kind, n, source.probes_per_row, case["slots"], stream_id, **hook),
        ))
    for seq in range(case["updates"]):
        if seq:
            for server, _ in ends:
                render(server.source, np.flatnonzero(rng.random(n) < 0.4), rng)
        pvs = pvs_probes(random_pose(volume, rng), geometry, volume, PARAMS)
        for server, client in ends:
            yield server, client, server.update(volume, pvs, seq)


def delivers(server, client, update) -> None:
    planes, entries = client.receive(update.message)
    assert planes.equals(update.planes)
    assert entries == update.entries
    assert np.array_equal(client.atlas.texels, server.last_sent.texels)


@settings(max_examples=40, deadline=None)
@given(sessions())
def test_client_atlas_matches_last_sent_on_every_update(case):
    for server, client, update in serve(case):
        assert len(update.selected) <= case["slots"]
        delivers(server, client, update)


def client_state(client: ClientStream):
    twin, decoder = client.twin, client.decoder
    reference = None if decoder.reference is None else decoder.reference.data.tobytes()
    return list(twin.probe_slot.items()), reference, decoder.frame_count, client.atlas.texels.tobytes()


def with_ids(update, raw: bytes) -> bytes:
    """The update's frame with other id bytes and their CRC."""
    frame = update.message[: update.frame.encoded_size]
    return frame + raw + struct.pack("<I", zlib.crc32(raw))


def with_frame(server, update, planes: PlaneSet, stream_id: int) -> bytes:
    """The update's ids after a key frame of other planes for stream
    `stream_id`, with its CRC, from a copy of the server's encoder."""
    encoder = dataclasses.replace(server.encoder, stream_id=stream_id, reference=None)
    frame = encode_frame(planes, encoder, force_key=True)
    return frame.to_bytes() + update.message[update.frame.encoded_size :]


def damaged(draw, case, server, update) -> bytes:
    message = update.message
    n, slots = server.source.probe_count, case["slots"]
    ids = list(update.selected)
    stream_id = server.encoder.stream_id
    kinds = [
        "flip", "flip_ids", "truncate", "append", "odd", "outside", "twice", "too_many", "layout", "stream",
    ]
    if server.source.kind is AtlasKind.COLOR:
        kinds.append("colour")
    kind = draw(st.sampled_from(kinds))
    if kind.startswith("flip"):
        # anywhere, or in the ids and their CRC, which a flip anywhere seldom hits
        first = 8 * update.frame.encoded_size if kind == "flip_ids" else 0
        bits = draw(st.lists(st.integers(first, 8 * len(message) - 1), min_size=1, max_size=3, unique=True))
        flipped = bytearray(message)
        for bit in bits:
            flipped[bit // 8] ^= 0x80 >> bit % 8
        return bytes(flipped)
    if kind == "truncate":
        return message[: draw(st.integers(0, len(message) - 1))]
    if kind == "append":
        return message + draw(st.binary(min_size=1, max_size=8))
    if kind == "odd":
        return with_ids(update, np.asarray(ids, "<u2").tobytes() + b"\0")
    if kind == "outside":
        return with_ids(update, np.asarray(ids[:-1] + [draw(st.integers(n, 2**16 - 1))], "<u2").tobytes())
    if kind == "twice":
        twice = ids[:-1] + [ids[0]] if len(ids) > 1 else [0, 0]
        return with_ids(update, np.asarray(twice, "<u2").tobytes())
    if kind == "too_many":
        return with_ids(update, np.arange(slots + 1, dtype="<u2").tobytes())
    planes = update.planes.copy()
    if kind == "layout":
        planes = PlaneSet(planes.kind, np.zeros((3, planes.height, planes.width + BLOCK_SIDE), planes.data.dtype))
    elif kind == "stream":
        stream_id += 2
    else:
        # a 10-bit element with bit 10 set: the frame decodes, the texels do not
        planes.data[draw(st.integers(0, 2)), 0, 0] |= 1 << 10
    return with_frame(server, update, planes, stream_id)


@settings(max_examples=60, deadline=None)
@given(sessions(), st.data())
def test_client_rejects_a_bad_message_whole(case, data):
    for server, client, update in serve(case):
        message, before = damaged(data.draw, case, server, update), client_state(client)
        with pytest.raises(CodecError):
            client.receive(message)
        assert client_state(client) == before
        delivers(server, client, update)


def test_client_refuses_colour_above_10_bits_where_no_entry_reads():
    # 7 colour slots lie in a 6 x 2 grid, so slots 7 to 11 are padding that
    # no entry reads: an element above 10 bits there must still be refused
    volume = ProbeVolume((2, 2, 2))
    source = ProbeAtlas(AtlasKind.COLOR, volume.probe_count)
    render(source, np.arange(volume.probe_count), np.random.default_rng(3))
    server = ServerStream(source, 7, 4, 0)
    client = ClientStream(AtlasKind.COLOR, volume.probe_count, source.probes_per_row, 7, 0)
    update = server.update(volume, np.arange(volume.probe_count), 0)
    layout = server.layout
    last = layout.slots_per_row * layout.slot_rows - 1
    assert last >= layout.slot_count and max(slot for slot, _ in update.entries) < layout.slot_count
    row, col = divmod(last, layout.slots_per_row)
    planes = update.planes.copy()
    planes.data[2, row * layout.core_side, col * layout.core_side] |= 1 << 10
    before = client_state(client)
    with pytest.raises(MessageError):
        client.receive(with_frame(server, update, planes, 0))
    assert client_state(client) == before
    delivers(server, client, update)


def test_client_rejects_a_message_cut_inside_the_id_checksum():
    # a message with no ids ends in crc32(b"") = 0. Cut by one byte, its last
    # four bytes are the frame CRC's last byte and three zeros: read as the
    # ids' CRC, they match no ids whenever that byte is zero
    source = ProbeAtlas(AtlasKind.COLOR, 8)
    server = ServerStream(source, 1, 1, 0)
    client = ClientStream(AtlasKind.COLOR, 8, source.probes_per_row, 1, 0)
    volume = ProbeVolume((2, 2, 2))
    messages = (server.update(volume, [], seq).message for seq in range(4096))
    message = next(m for m in messages if m[-5] == 0)
    with pytest.raises(CodecError):
        client.receive(message[:-1])
    assert client.decoder.frame_count == 0


SPAN_NAMES = {
    "selection.detect_ms",
    "selection.select_ms",
    *(
        f"{layer}_ms.{kind.value}"
        for layer in ("packing.build", "packing.pack", "packing.unpack", "packing.assign",
                      "packing.apply", "codec.encode", "codec.decode")
        for kind in AtlasKind
    ),
    "codec.serialize_ms",
    "codec.parse_ms",
    "glue.server_ms",
}


def test_every_step_runs_through_call_under_a_benchmark_layer_name():
    recorded = []

    def call(name, fn, *args):
        recorded.append(name)
        return fn(*args)

    case = dict(dims=(3, 2, 3), slots=7, gop=2, updates=3, boxes=2, seed=5)
    for server, client, update in serve(case, call=call):
        delivers(server, client, update)
    assert set(recorded) == SPAN_NAMES
    assert SPAN_NAMES <= {layer["name"] for layer in json.loads(BENCHMARK.read_text())["per_layer"]}


def test_ends_refuse_more_probes_than_an_id_addresses():
    with pytest.raises(ValueError):
        ServerStream(ProbeAtlas(AtlasKind.COLOR, 2**16 + 1), 1, 1, 0)
    with pytest.raises(ValueError):
        ClientStream(AtlasKind.COLOR, 2**16 + 1, 257, 1, 0)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("workload", ["walk_static", "relight_local", "keyframe_churn"])
def test_messages_carry_the_harness_wire_bytes(workload, seed, monkeypatch):
    # the harness sends each stream's frame bytes and id bytes apart. On the
    # same scene, each message must be those bytes and the ids' CRC, and
    # rebuild the harness client's atlas
    monkeypatch.syspath_prepend(str(ROOT / "streambench"))
    harness, scenes = importlib.import_module("session"), importlib.import_module("workload")
    spec = scenes.WORKLOADS[workload]
    scene = scenes.Scene(spec, seed, (6, 4, 6))
    session = harness.Session(scene, trace=False)
    n = scene.volume.probe_count
    ends = [
        (ServerStream(s.source, scene.slots, spec.gop, i),
         ClientStream(s.kind, n, s.source.probes_per_row, scene.slots, i), s)
        for i, s in enumerate(session.streams)
    ]
    # two whole GOPs and the next key frame
    for seq in range(max(2 * spec.gop + 1, 4)):
        scene.advance(seq)
        u = session.update(seq)
        for (server, client, s), frame, ids in zip(ends, u.wire[0::2], u.wire[1::2]):
            message = server.update(scene.volume, u.pvs, seq).message
            assert message == frame + ids + struct.pack("<I", zlib.crc32(ids))
            client.receive(message)
            assert np.array_equal(client.atlas.texels, s.client.texels)
