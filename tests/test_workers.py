import hashlib
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from probestream import workers
from probestream.codec import CodecStreamState, decode_frame, encode_frame
from probestream.packing import PlaneSet, pack_texels, unpack_texels
from probestream.volume import AtlasKind


def test_results_in_piece_order(cpus):
    cpus(3)
    for n in (0, 1, 2, 17):
        assert workers.run_pieces(lambda x: x * x, range(n)) == [x * x for x in range(n)]


def test_one_cpu_runs_every_piece_inline(cpus):
    cpus(1)
    ran_on = workers.run_pieces(lambda _: threading.get_ident(), range(8))
    assert set(ran_on) == {threading.get_ident()}
    assert workers._pool is None


def test_calling_thread_takes_its_share(cpus):
    # pieces that release the interpreter lock: every thread gets some,
    # the calling thread included, and never more threads than CPUs
    cpus(3)
    ran_on = workers.run_pieces(lambda _: time.sleep(0.02) or threading.get_ident(), range(12))
    assert threading.get_ident() in ran_on
    assert 1 < len(set(ran_on)) <= 3


def test_nested_calls_return_in_order(cpus):
    # more outer pieces than pool threads, each dispatching its own sleeping
    # pieces: a nested call must never wait on a helper that cannot start
    cpus(3)
    results = []

    def piece(i):
        return workers.run_pieces(lambda j: time.sleep(0.01) or i * 10 + j, range(4))

    caller = threading.Thread(target=lambda: results.append(workers.run_pieces(piece, range(6))), daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive()
    assert results == [[[10 * i + j for j in range(4)] for i in range(6)]]


def test_first_exception_in_piece_order_reaches_caller(cpus):
    cpus(3)
    running = []

    def piece(i):
        running.append(i)
        time.sleep(0.005)
        running.remove(i)
        if i in (3, 5):
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as raised:
        workers.run_pieces(piece, range(8))
    # pieces start in order, so piece 3 has started whenever piece 5 has,
    # and its exception wins even when piece 5 raises first
    assert raised.value.args == (3,)
    assert running == []  # no piece is left running on a pool thread
    assert workers.run_pieces(lambda x: -x, range(4)) == [0, -1, -2, -3]


def test_no_thread_at_import_or_for_one_piece():
    code = (
        "import threading\n"
        "import probestream, probestream.codec, probestream.packing, probestream.selection\n"
        "from probestream import workers\n"
        "assert threading.active_count() == 1 and workers._pool is None\n"
        "assert workers.run_pieces(abs, [-3]) == [3]\n"
        "assert threading.active_count() == 1 and workers._pool is None\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


# --- many callers at once -----------------------------------------------------

CALLERS = 6  # more than the CPUs of a small host, fixed whatever the host


def _case(seed):
    """Seeded frames above every cut-off: visibility planes whose key frame
    splits into lanes, colour planes of six key-frame segments, and the
    texels of the visibility update atlas of 2048 slots."""
    rng = np.random.default_rng(seed)
    vis = rng.integers(0, 8, size=(3, 256, 352), dtype=np.uint8)
    color = rng.integers(0, 1024, size=(3, 208, 208), dtype=np.uint16)
    texels = rng.integers(0, 2**16, size=(688, 768, 2), dtype=np.uint16).astype(">u2")
    return vis, color, texels


def _work(case):
    """Digests of three frames of each stream (key, changed P, unchanged P),
    their decodes, and the visibility packing and unpacking."""
    vis, color, texels = case
    out = []
    for kind, data in ((AtlasKind.VISIBILITY, vis), (AtlasKind.COLOR, color)):
        enc, dec = CodecStreamState(1, "encoder"), CodecStreamState(1, "decoder")
        planes = data.copy()
        for step in range(3):
            if step == 1:
                planes[:, ::7, ::5] ^= 1
            frame = encode_frame(PlaneSet(kind, planes), enc)
            decoded = decode_frame(frame, dec)
            out.append(hashlib.sha256(frame.to_bytes()).hexdigest())
            out.append(np.array_equal(decoded.data, planes))
    packed = pack_texels(texels, AtlasKind.VISIBILITY)
    out.append(hashlib.sha256(packed.data.tobytes()).hexdigest())
    out.append(np.array_equal(unpack_texels(packed, AtlasKind.VISIBILITY, texels.shape[1]), texels))
    return out


def test_concurrent_callers_match_single_thread(cpus):
    cpus(3)  # two pool threads, whatever the host
    cases = [_case(seed) for seed in range(CALLERS)]
    expected = [_work(case) for case in cases]
    assert all(r is True for r in expected[0] if isinstance(r, bool))
    results = [None] * CALLERS
    nested = []
    failures = []

    def caller(i):
        try:
            if i == 0:
                # a dispatch from inside pieces: each piece's codec segments
                # go to the same pool
                nested.append(workers.run_pieces(_work, cases[:2]))
            results[i] = _work(cases[i])
        except BaseException as err:
            failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(CALLERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert failures == []
    assert results == expected
    assert nested == [expected[:2]]
