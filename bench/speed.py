"""Pass timing scaled to a reference machine speed.

The machine this runs on shares its cores with other tenants: for tens of
seconds at a time the same code runs up to ~1.6x slower, then fast again. A
median over passes cannot remove a slowdown that lasts a whole run, so every
timed interval is bracketed by a fixed calibration kernel and its wall time is
scaled to the speed at which that kernel takes REFERENCE_KERNEL_S.

Within a pass, the clock closes an interval and runs the kernel again at the
first mark point after MIN_INTERVAL_S, so no interval is long enough for the
machine's speed to change much inside it. The mark points are the ends of
`Tensor.backward`, `PcqNetwork.predict`, `dsp.write_feature` and
`dsp.read_feature`: one per segment in every phase. Kernel time is never
counted.

The kernel mixes what the program does: small padded tensordots, one large
one, an rfft and an interpreter loop. It keeps its own references to numpy's
functions, so tracing, which wraps numpy.pad and numpy.tensordot, neither
counts nor slows it.
"""

import time

import numpy as np

from pcq import dsp, tensor
from pcq.network import PcqNetwork

REFERENCE_KERNEL_S = 0.010
MIN_INTERVAL_S = 0.25

_pad, _tensordot, _rfft = np.pad, np.tensordot, np.fft.rfft
_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((8, 40, 32)).astype(np.float32)
_W = _rng.standard_normal((8, 8)).astype(np.float32)
_BIG = _rng.standard_normal((16, 150, 100)).astype(np.float32)
_WBIG = _rng.standard_normal((16, 16)).astype(np.float32)
_FRAMES = _rng.standard_normal((300, 640))


def calibration_seconds() -> float:
    """Wall time of the fixed calibration kernel, about 10 ms at reference speed."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(60):
        x = _pad(_SMALL, ((0, 0), (1, 1), (1, 1)))
        for di in range(3):
            acc += float(_tensordot(_W, x[:, di:di + 40, 1:33], axes=([1], [0])).sum())
    acc += float(_tensordot(_WBIG, _BIG, axes=([1], [0])).sum())
    acc += float(np.abs(_rfft(_FRAMES, n=800, axis=1)).sum())
    total = 0
    for i in range(8000):
        total += i * i
    return time.perf_counter() - start


class SpeedClock:
    """Times one pass at a time: wall seconds and seconds at reference speed."""

    def __init__(self):
        self.running = False

    def start(self):
        self.wall = self.reference = 0.0
        self._kernel = calibration_seconds()
        self._since = time.perf_counter()
        self.running = True

    def mark(self, force: bool = False):
        now = time.perf_counter()
        if not self.running or (not force and now - self._since < MIN_INTERVAL_S):
            return
        kernel = calibration_seconds()
        self.wall += now - self._since
        self.reference += (now - self._since) * REFERENCE_KERNEL_S / (0.5 * (self._kernel + kernel))
        self._kernel = kernel
        self._since = time.perf_counter()

    def stop(self) -> tuple:
        """(wall seconds, reference seconds) of the pass."""
        self.mark(force=True)
        self.running = False
        return self.wall, self.reference


class MarkPoints:
    """Calls clock.mark() after each per-segment call of the program, while installed."""

    TARGETS = ((tensor.Tensor, "backward"), (PcqNetwork, "predict"),
               (dsp, "write_feature"), (dsp, "read_feature"))

    def __init__(self, clock: SpeedClock):
        self.clock = clock
        self._saved = []

    def install(self):
        for owner, attr in self.TARGETS:
            orig = owner.__dict__[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._marking(orig))

    def uninstall(self):
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def _marking(self, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.clock.mark()
            return out
        return wrapped
