"""numpy's `default_rng(seed)` streams in pure Python, for the calls `synth` makes.

`Generator(seed)` draws exactly what `numpy.random.default_rng(seed)` draws, value for
value, in lists instead of arrays: SeedSequence seeding of a PCG64 generator (O'Neill
2014, "PCG: A Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation"), numpy's carried 32-bit half, `random`, `integers` (Lemire's
32-bit bounded draw), `shuffle` and `choice` with `p`. `pairwise_sum` is `np.add.reduce`
on float64.

It avoids importing numpy, which costs more than the draws themselves on a small
corpus; per draw it is slower, so `NumpyGenerator` answers the same calls from numpy.
"""

from bisect import bisect_right
from itertools import accumulate

_M32 = (1 << 32) - 1
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULTIPLIER = (2549297995355413924 << 64) + 4865540595714422341
_TO_DOUBLE = 1.0 / 9007199254740992.0  # 2**-53

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_sequence(seed: int) -> tuple[int, int]:
    """PCG64's 128-bit initial state and stream for `SeedSequence(seed)`."""
    entropy = []
    while True:  # the seed's 32-bit words, least significant first; 0 is one word
        entropy.append(seed & _M32)
        seed >>= 32
        if not seed:
            break
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))

    words = []  # generate_state(4, uint64) as eight 32-bit words
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    state = [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]
    return state[0] << 64 | state[1], state[2] << 64 | state[3]


class Generator:
    """`numpy.random.default_rng(seed)`, draw for draw, for the calls `synth` makes."""

    def __init__(self, seed: int):
        initstate, initseq = _seed_sequence(seed)
        self._inc = inc = (initseq << 1 | 1) & _M128
        self._state = ((inc + initstate) * _PCG_MULTIPLIER + inc) & _M128
        self._half = None  # the high half of a 64-bit output split for 32-bit draws

    def _outputs(self, count: int) -> list[int]:
        """The next `count` PCG64 (XSL-RR) outputs: each steps the state, then outputs
        the new state's high and low halves xored and rotated by its top six bits."""
        state, inc = self._state, self._inc
        out = []
        for _ in range(count):
            state = (state * _PCG_MULTIPLIER + inc) & _M128
            x = (state >> 64 ^ state) & _M64
            rot = state >> 122
            out.append((x >> rot | x << 64 - rot) & _M64)
        self._state = state
        return out

    def _uint32s(self, count: int) -> list[int]:
        """The next `count` 32-bit draws. Each 64-bit output gives its low half, and its
        high half waits for the next 32-bit draw, as numpy carries it; 64-bit draws
        leave a waiting half where it is."""
        words = []
        if count and self._half is not None:
            words.append(self._half)
            self._half = None
        for value in self._outputs((count - len(words) + 1) // 2):
            words += (value & _M32, value >> 32)
        if len(words) > count:
            self._half = words.pop()
        return words

    def random(self, size: int | None = None):
        """Uniform doubles in [0, 1): one float, or a list of `size`."""
        if size is None:
            return (self._outputs(1)[0] >> 11) * _TO_DOUBLE
        return [(value >> 11) * _TO_DOUBLE for value in self._outputs(size)]

    # Lemire's draw and random_interval reject some 32-bit draws, so each takes at least
    # as many draws as values are left: asking for that many never draws past the end.

    def integers(self, low: int, high: int, size: int) -> list[int]:
        """`size` integers in [low, high), by Lemire's method on 32-bit draws."""
        span = high - low
        if span == 1:
            return [low] * size
        if not 1 < span <= 1 << 32:
            raise ValueError(f"integers spans 2 to 2**32 values, got {span}")
        threshold = (1 << 32) % span  # rejecting leftovers below it removes the bias
        out = []
        while len(out) < size:
            for word in self._uint32s(size - len(out)):
                m = word * span
                if m & _M32 >= threshold:
                    out.append(low + (m >> 32))
        return out

    def shuffle(self, x: list) -> None:
        """Fisher-Yates from the end; each swap index is a 32-bit draw masked to the
        smallest all-ones value that covers it, rejected while too large."""
        i = len(x) - 1
        if i >= 1 << 32:
            raise ValueError(f"shuffle takes at most 2**32 items, got {len(x)}")
        mask = (1 << i.bit_length()) - 1
        while i > 0:
            for word in self._uint32s(i):
                j = word & mask
                if j <= i:
                    x[i], x[j] = x[j], x[i]
                    i -= 1
                    if i <= mask >> 1:
                        mask >>= 1

    def choice(self, a: int, size: int, p: list[float]) -> list[int]:
        """`size` indices below `a`, drawn with probabilities `p` by inverting their cdf."""
        if len(p) != a:
            raise ValueError(f"p has {len(p)} entries for a population of {a}")
        cdf = list(accumulate(p))
        last = cdf[-1]
        cdf = [c / last for c in cdf]
        return [bisect_right(cdf, u) for u in self.random(size)]


def pairwise_sum(values: list[float]) -> float:
    """`np.add.reduce` of a float64 array: numpy's pairwise summation, bit for bit."""
    return 0.0 + _pairwise(values, 0, len(values))  # the reduction starts from add's identity


def _pairwise(a: list[float], lo: int, n: int) -> float:
    if n < 8:
        total = -0.0
        for i in range(lo, lo + n):
            total += a[i]
        return total
    if n <= 128:  # eight interleaved accumulators, then the rest one by one
        r = a[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += a[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for i in range(end, lo + n):
            total += a[i]
        return total
    half = n // 2
    half -= half % 8
    return _pairwise(a, lo, half) + _pairwise(a, lo + half, n - half)


class NumpyGenerator:
    """numpy's own `default_rng(seed)` behind `Generator`'s list-returning methods."""

    def __init__(self, seed: int):
        import numpy as np
        self._rng = np.random.default_rng(seed)

    def random(self, size: int | None = None):
        return self._rng.random() if size is None else self._rng.random(size).tolist()

    def integers(self, low: int, high: int, size: int) -> list[int]:
        return self._rng.integers(low, high, size).tolist()

    def shuffle(self, x: list) -> None:
        self._rng.shuffle(x)

    def choice(self, a: int, size: int, p: list[float]) -> list[int]:
        return self._rng.choice(a, size, p=p).tolist()
