"""End to end: a server and a thin client, glued from public calls only.

Per update the server detects the changed probes, casts the PVS, selects
within the budget, builds the update atlas, packs and encodes it, and
serialises the frame and the selected ids (`<u2` bytes). Its own glue
copies the sent blocks into a last-sent atlas and records when each probe
was sent. The client parses and decodes the frame, unpacks it, replays the
ids on a twin layout and applies the entries to its atlas. Every update
must leave the client's planes, entries and atlas equal to the server's.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from probestream.codec import CodecStreamState, EncodedFrame, decode_frame, encode_frame
from probestream.packing import (
    UpdateAtlasLayout,
    apply_update_entries,
    build_update_atlas,
    pack_texels,
    reconstruct_guard_band,
    unpack_texels,
)
from probestream.selection import (
    CameraPose,
    SceneGeometry,
    SelectionParams,
    detect_changed,
    pvs_probes,
    select_for_client,
)
from probestream.volume import AtlasKind, ProbeAtlas, ProbeVolume

ID_DTYPE = np.dtype("<u2")
PARAMS = SelectionParams(sphere_rays=64, raster_cols=8, raster_rows=8)


def render(atlas: ProbeAtlas, ids: np.ndarray, rng) -> None:
    """Write random cores, with their guard bands, into the blocks of `ids`."""
    side = atlas.kind.core_side
    if atlas.kind is AtlasKind.COLOR:
        cores = rng.integers(0, 1 << 30, size=(side, side, len(ids)), dtype=np.uint32)
    else:
        cores = rng.integers(0, 1 << 16, size=(side, side, 2, len(ids)), dtype=np.uint16)
    atlas.blocks()[atlas.block_index(ids)] = np.moveaxis(reconstruct_guard_band(cores), -1, 0)


class Stream:
    """Server and client state of one atlas stream."""

    def __init__(self, source: ProbeAtlas, slots: int, gop: int, stream_id: int) -> None:
        self.source = source
        self.layout = UpdateAtlasLayout(slots, source.kind.core_side)
        self.twin = UpdateAtlasLayout(slots, source.kind.core_side)
        self.encoder = CodecStreamState(stream_id, "encoder", gop)
        self.decoder = CodecStreamState(stream_id, "decoder", gop)
        self.update_texels = None
        self.last_sent = ProbeAtlas(source.kind, source.probe_count)
        self.client = ProbeAtlas(source.kind, source.probe_count)
        self.last_sent_seq = np.full(source.probe_count, -1, dtype=np.int64)

    def serve(self, volume, pvs, seq, budget):
        """One server update: the frame bytes, the id bytes, what was packed
        and the entries."""
        changed = detect_changed(self.source, self.last_sent, volume)
        selected = select_for_client(changed, pvs, volume, self.last_sent_seq, seq, budget)
        self.update_texels, entries = build_update_atlas(
            selected, self.layout, self.source, self.update_texels
        )
        planes = pack_texels(self.update_texels, self.source.kind)
        data = encode_frame(planes, self.encoder).to_bytes()
        # glue: remember what was sent and serialise the ids
        index = self.source.block_index(selected)
        self.last_sent.blocks()[index] = self.source.blocks()[index]
        self.last_sent_seq[selected] = seq
        return data, np.asarray(selected).astype(ID_DTYPE).tobytes(), planes, entries

    def receive(self, data: bytes, ids: bytes):
        """One client update: the decoded planes and the replayed entries."""
        planes = decode_frame(EncodedFrame.from_bytes(data), self.decoder)
        texels = unpack_texels(planes, self.source.kind, self.twin.width)
        entries = self.twin.assign(np.frombuffer(ids, dtype=ID_DTYPE).tolist())
        apply_update_entries(entries, texels, self.twin, self.client)
        return planes, entries


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
    probes = dims[0] * dims[1] * dims[2]
    slots = draw(st.integers(1, probes))
    return dict(
        dims=dims,
        slots=slots,
        budget=draw(st.integers(0, slots)),
        gop=draw(st.integers(1, 4)),
        updates=draw(st.integers(4, 9)),
        boxes=draw(st.integers(0, 3)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(sessions())
def test_client_atlas_matches_last_sent_on_every_update(case):
    rng = np.random.default_rng(case["seed"])
    volume = ProbeVolume(case["dims"])
    n = volume.probe_count
    geometry = SceneGeometry(random_boxes(volume, case["boxes"], rng))
    streams = []
    for stream_id, kind in enumerate(AtlasKind):
        source = ProbeAtlas(kind, n)
        render(source, np.arange(n), rng)
        streams.append(Stream(source, case["slots"], case["gop"], stream_id))
    for seq in range(case["updates"]):
        if seq:
            for s in streams:
                render(s.source, np.flatnonzero(rng.random(n) < 0.4), rng)
        pvs = pvs_probes(random_pose(volume, rng), geometry, volume, PARAMS)
        for s in streams:
            data, ids, packed, entries = s.serve(volume, pvs, seq, case["budget"])
            decoded, client_entries = s.receive(data, ids)
            assert decoded.equals(packed)
            assert client_entries == entries
            assert np.array_equal(s.client.texels, s.last_sent.texels)
