"""Streaming of dynamic light-probe volumes from a server to thin clients.

The package splits into the probe data model (`volume`), per-client probe
selection (`selection`), bit-exact layout transforms and the update-atlas
slot allocator (`packing`), and a lossless temporal frame codec (`codec`).
The codec's deflate and inflate segments run on the process's CPUs
through one lazily started thread pool (`workers`); the block-change
reduction of `volume` is serial.
`stream` joins them into the two ends of one client's stream: the server's,
which turns each render into a checked message, and the thin client's, which
rebuilds its atlas from the messages and rejects a bad one whole.
The benchmark in `streambench/` drives them on seeded workloads.
"""

from probestream.stream import ClientStream, MessageError, ServerStream
from probestream.volume import (
    AtlasKind,
    ProbeAtlas,
    ProbeVolume,
    oct_decode,
    oct_encode,
    throughput_bps,
)

__all__ = [
    "AtlasKind",
    "ClientStream",
    "MessageError",
    "ProbeAtlas",
    "ProbeVolume",
    "ServerStream",
    "oct_decode",
    "oct_encode",
    "throughput_bps",
]

__version__ = "0.1.0"
