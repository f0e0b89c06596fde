"""Reference kernel: tracks the host's speed from inside a run.

On a shared host, single-thread speed changes by up to 2x, sometimes several
times a second and sometimes in phases of a minute, so a run can sit in a
slow phase from start to end.  So while the benchmark times the program, a
timer signal runs this kernel, which never changes, every SAMPLE_EVERY_S,
and every time the benchmark reports is rescaled to the speed at which the
kernel takes REFERENCE_S.  An op's scale is the mean speed over the samples
taken while it ran, not their median: when the speed flips back and forth,
the work an op gets done is the integral of the speed over its run.  The
kernel does the program's kind of work in pure Python, exact integer
elimination and sparse polynomial products, so both slow down together.

The timer runs in the benchmark's one thread, between two bytecodes of the
program, so it needs no second thread or process.  This module imports only
what a fresh interpreter has already loaded or builds in, so the set-up
probe can load it before it times `import spraylie` without importing any of
spraylie's dependencies early.
"""

import gc
import signal
from time import perf_counter

ROWS, COLS = 20, 23
POWER = 9  # (1 + x + y + z) ** POWER: 220 monomials, coefficients summing to 4 ** POWER
MONOMIALS = 220
# About the median time of one kernel run on the 2-vCPU Xeon VM the benchmark
# was defined on.  Rescaled times are seconds at that speed.  Changing this
# constant changes every time the benchmark reports.
REFERENCE_S = 0.0025
SAMPLE_EVERY_S = 0.1


def _matrix() -> tuple[tuple[int, ...], ...]:
    """A fixed ROWS x COLS matrix of entries in [-9, 9], from a linear congruential generator."""
    x, rows = 12345, []
    for _ in range(ROWS):
        row = []
        for _ in range(COLS):
            x = (1103515245 * x + 12345) % 2**31
            row.append(x % 19 - 9)
        rows.append(tuple(row))
    return tuple(rows)


_MATRIX = _matrix()
_LINEAR = {(0, 0, 0): 1, (1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}


def _rank(matrix) -> int:
    """Rank by fraction-free (Bareiss) elimination over the integers."""
    m = [list(row) for row in matrix]
    rank, previous = 0, 1
    for col in range(COLS):
        pivot = next((i for i in range(rank, ROWS) if m[i][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank][col]
        for i in range(rank + 1, ROWS):
            factor = m[i][col]
            m[i] = [(head * a - factor * b) // previous for a, b in zip(m[i], m[rank])]
        previous = head
        rank += 1
        if rank == ROWS:
            break
    return rank


def _power(poly: dict, exponent: int) -> dict:
    """poly ** exponent, with polynomials as {exponent tuple: coefficient}."""
    out = {(0, 0, 0): 1}
    for _ in range(exponent):
        product: dict = {}
        for (a, b, c), p in out.items():
            for (d, e, f), q in poly.items():
                key = (a + d, b + e, c + f)
                product[key] = product.get(key, 0) + p * q
        out = product
    return out


def kernel() -> bool:
    """Run the fixed work once; True when both answers are right."""
    poly = _power(_LINEAR, POWER)
    return _rank(_MATRIX) == ROWS and len(poly) == MONOMIALS and sum(poly.values()) == 4**POWER


class Sampler:
    """Times the kernel on a SIGALRM timer while it is entered.

    `spent` is the wall time the timer took, which op times leave out.  The
    cyclic garbage collector is held off during a kernel run, so that it
    collects the program's garbage in the program's time, not the kernel's.
    """

    def __init__(self, every: float = SAMPLE_EVERY_S):
        self.every = every
        self.ends: list[float] = []  # when each kernel run ended, ascending
        self.times: list[float] = []  # how long each took
        self.spent = 0.0
        self.wrong = False  # the kernel gave a wrong answer
        self._busy = False
        self._previous = None

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            right = kernel()
            end = perf_counter()
        finally:
            if collecting:
                gc.enable()
            self._busy = False
        self.ends.append(end)
        self.times.append(end - start)
        self.wrong |= not right
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        self.sample()  # so that even a run shorter than `every` has a sample
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S times the mean kernel speed over the samples that
        ended in [start - every, end + every]; the nearest sample's when
        there is none.  Multiplying a time taken in [start, end] by this
        gives seconds at the reference speed."""
        window = [t for e, t in zip(self.ends, self.times) if start - self.every <= e <= end + self.every]
        if not window:
            window = [min(zip(self.ends, self.times), key=lambda s: abs(s[0] - end))[1]]
        return sum(REFERENCE_S / t for t in window) / len(window)
