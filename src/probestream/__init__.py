"""Streaming of dynamic light-probe volumes from a server to thin clients.

The package splits into the probe data model (`volume`), per-client probe
selection (`selection`), bit-exact layout transforms and the update-atlas
slot allocator (`packing`), and a lossless temporal frame codec (`codec`).
The codec's deflate segments and the whole-plane passes of `volume` and
`packing` run their independent pieces on the process's CPUs through one
lazily started thread pool (`workers`).
The benchmark in `streambench/` wires them into a server and a thin client.
"""

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
    "ProbeAtlas",
    "ProbeVolume",
    "oct_decode",
    "oct_encode",
    "throughput_bps",
]

__version__ = "0.1.0"
