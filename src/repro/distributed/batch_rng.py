"""Vectorized per-(seed, node) RNG lanes for batched execution.

The determinism contract (ARCHITECTURE.md) says every backend spawns
node RNGs as ``SeedSequence(seed).spawn(n)`` and a ported program must
replay the *same draws on the same per-node streams* as its generator
twin.  For one seed that replay is a cheap Python loop over ``n``
``numpy.random.Generator`` objects.  For a *batch* of seeds it becomes
the bottleneck: profiling the n=2000 Luby cell puts ~75% of an array
run in Generator construction (the ``spawn``) and ``integers()`` call
overhead, not in the draws' actual arithmetic.

This module removes that bottleneck by replicating the NumPy stream
*bit for bit* with array arithmetic over all ``num_seeds × n`` lanes
at once:

* the ``SeedSequence`` entropy-pool hash (Melissa O'Neill's
  ``randutils`` construction: ``hashmix`` / ``mix`` over a 4-word
  pool, spawn keys appended after the entropy is padded to the pool
  size) — vectorized over lanes, one pool per (seed, node);
* PCG64 seeding and stepping (the 128-bit LCG with the XSL-RR output
  permutation, emulated on ``uint64`` hi/lo pairs);
* ``Generator.integers(low, high)``'s tiered bounded-draw algorithm:
  Lemire rejection on buffered 32-bit halves for ranges below 2³²−1,
  a raw 32-bit word at exactly 2³²−1, 128-bit Lemire above —
  including the half-word buffer PCG64 keeps between 32-bit draws;
* ``Generator.choice(seq)`` for 1-D sequences, which draws exactly
  ``integers(0, len(seq))`` (and draws *nothing* when ``len == 1``).

Correctness is pinned two ways:
``tests/test_distributed/test_batch_rng.py`` compares lanes against
real ``Generator`` objects draw by draw, and
:func:`verify_replication` (run once, lazily, on first lane
construction) cross-checks a handful of draws at import-cost ~1 ms so
a NumPy build with a diverging stream fails loudly instead of
corrupting batched results.

The public surface is :class:`LaneRngs` — construct with the batch's
seed list and the vertex count (plus, optionally, the node id each
vertex index stands for), then call :meth:`LaneRngs.integers` with flat
lane ids (``seed_index * n + vertex``).  One draw per lane per call,
matching one ``rng.integers(...)`` / ``rng.choice(...)`` call in the
scalar program.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

U32 = np.uint32
U64 = np.uint64

# SeedSequence hash constants (NumPy's bit_generator, after randutils).
_XSHIFT = U32(16)
_INIT_A = U32(0x43B0D7E5)
_MULT_A = U32(0x931E8875)
_INIT_B = U32(0x8B51F9DD)
_MULT_B = U32(0x58F38DED)
_MIX_MULT_L = U32(0xCA01F9DD)
_MIX_MULT_R = U32(0x4973F715)
_POOL_SIZE = 4

# PCG64's default 128-bit LCG multiplier, as (hi, lo) uint64 halves.
_PCG_MULT_HI = 0x2360ED051FC65DA4
_PCG_MULT_LO = 0x4385DF649FCCF645


def _u64(value: int) -> np.ndarray:
    """A 0-d ``uint64`` operand (NumPy dispatches these faster than scalars)."""
    return np.array(value, dtype=U64)


_LOW32 = _u64(0xFFFFFFFF)
_ZERO, _ONE, _32, _58, _63, _64 = (_u64(v) for v in (0, 1, 32, 58, 63, 64))
_MULT_HI, _MULT_LO = _u64(_PCG_MULT_HI), _u64(_PCG_MULT_LO)
_MULT_LO_LO, _MULT_LO_HI = _u64(_PCG_MULT_LO & 0xFFFFFFFF), _u64(_PCG_MULT_LO >> 32)


def _to_uint32_words(value: int) -> list[int]:
    """``SeedSequence._coerce_to_uint32_array`` for a nonnegative int."""
    if value < 0:
        raise ValueError("seeds must be nonnegative integers")
    if value == 0:
        return [0]
    words = []
    while value > 0:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


def _hashmix(value: np.ndarray, const: np.uint32) -> tuple[np.ndarray, np.uint32]:
    """One ``hashmix`` step; returns (hashed value, next hash constant)."""
    value = value ^ const
    const = U32(const * _MULT_A)
    value = value * const
    value ^= value >> _XSHIFT
    return value, const

def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = x * _MIX_MULT_L - y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def _spawned_pools(seed: int, spawn_keys: np.ndarray) -> np.ndarray:
    """Entropy pools of ``SeedSequence(seed).spawn(max+1)[k]`` for each k.

    Returns ``uint32[len(spawn_keys), 4]``.  The pool hash consumes the
    assembled entropy — the seed's uint32 words padded to the pool
    size, then the spawn key — word by word; everything up to the
    spawn key depends only on ``seed``, so it is computed once and the
    final spawn-key round is vectorized over all keys.
    """
    entropy = _to_uint32_words(seed)
    if len(entropy) < _POOL_SIZE:  # pad before appending the spawn key
        entropy = entropy + [0] * (_POOL_SIZE - len(entropy))
    pool = np.zeros(_POOL_SIZE, dtype=U32)
    const = _INIT_A
    for i in range(_POOL_SIZE):
        word = U32(entropy[i]) if i < len(entropy) else U32(0)
        pool[i], const = _hashmix(word, const)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                hashed, const = _hashmix(pool[i_src], const)
                pool[i_dst] = _mix(pool[i_dst], hashed)
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            hashed, const = _hashmix(U32(entropy[i_src]), const)
            pool[i_dst] = _mix(pool[i_dst], hashed)
    # Spawn-key round, vectorized over all keys (one uint32 word each).
    pools = np.broadcast_to(pool, (len(spawn_keys), _POOL_SIZE)).copy()
    keys = spawn_keys.astype(U32)
    for i_dst in range(_POOL_SIZE):
        hashed, const = _hashmix(keys.copy(), const)
        pools[:, i_dst] = _mix(pools[:, i_dst], hashed)
    return pools


def _generate_state4(pools: np.ndarray) -> np.ndarray:
    """``generate_state(4, uint64)`` for each pool row -> ``uint64[L, 4]``."""
    n_lanes = pools.shape[0]
    out32 = np.empty((n_lanes, 8), dtype=U32)
    const = _INIT_B
    for i_dst in range(8):
        data = pools[:, i_dst % _POOL_SIZE] ^ const
        const = U32(const * _MULT_B)
        data = data * const
        data ^= data >> _XSHIFT
        out32[:, i_dst] = data
    # uint32 word pairs combine little-endian: low word first.
    return out32[:, 0::2].astype(U64) | (out32[:, 1::2].astype(U64) << _32)


def _mulhi64(
    a: np.ndarray, b_lo: np.ndarray, b_hi: np.ndarray
) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b``, ``b`` in 32-bit halves."""
    a_lo = a & _LOW32
    a_hi = a >> _32
    hi_lo = a_hi * b_lo
    cross = ((a_lo * b_lo) >> _32) + (hi_lo & _LOW32) + a_lo * b_hi
    return a_hi * b_hi + (hi_lo >> _32) + (cross >> _32)


#: A lane's state as one ``uint64`` array per field, in this order: the
#: 128-bit LCG state and increment as (hi, lo) halves, and the upper
#: half-word PCG64 buffers between 32-bit draws.  A sixth, ``bool``
#: array says whether that buffer is full.
_SH, _SL, _IH, _IL, _BUF, _HAS = range(6)


def _step(st: list[np.ndarray]) -> None:
    """state <- state * MULT + inc (mod 2^128) in every lane of ``st``."""
    sh, sl = st[_SH], st[_SL]
    pl = sl * _MULT_LO
    lo = pl + st[_IL]
    st[_SH] = (
        sh * _MULT_LO + sl * _MULT_HI + _mulhi64(sl, _MULT_LO_LO, _MULT_LO_HI)
        + st[_IH] + (lo < pl)
    )
    st[_SL] = lo


def _next64(st: list[np.ndarray]) -> np.ndarray:
    """One raw 64-bit word per lane of ``st`` (XSL-RR output)."""
    _step(st)
    sh = st[_SH]
    rot = sh >> _58
    xored = sh ^ st[_SL]
    return (xored >> rot) | (xored << ((_64 - rot) & _63))


def _next32(st: list[np.ndarray]) -> np.ndarray:
    """One 32-bit word per lane of ``st``, low half first, buffered."""
    has = st[_HAS]
    st[_HAS] = ~has  # a full buffer is spent, an empty one refilled
    if not has.any():
        word = _next64(st)
        st[_BUF] = word >> _32
        return word & _LOW32
    out = st[_BUF].copy()
    fresh = ~has
    if fresh.any():
        sub = [st[f][fresh] for f in (_SH, _SL, _IH, _IL)]
        word = _next64(sub)
        st[_SH][fresh] = sub[_SH]
        st[_SL][fresh] = sub[_SL]
        st[_BUF][fresh] = word >> _32
        out[fresh] = word & _LOW32
    return out


def _lemire(
    st: list[np.ndarray], excl: np.ndarray, threshold: np.ndarray, wide: bool
) -> np.ndarray:
    """Lemire's bounded draw, one per lane of ``st``.

    ``excl`` is the exclusive range and ``threshold`` the rejection
    bound; ``wide`` draws raw 64-bit words (a 128-bit product), else
    buffered 32-bit words.  A rejected lane draws again, as the
    per-node Generator would; rejections are rare, so the first pass
    covers every lane and each retry only the ones still rejected.
    """
    if wide:
        word = _next64(st)
        out = _mulhi64(word, excl & _LOW32, excl >> _32)
        bad = np.flatnonzero(word * excl < threshold)
    else:
        prod = _next32(st) * excl
        out = prod >> _32
        bad = np.flatnonzero(prod & _LOW32 < threshold)
    if bad.size:
        sub = [field[bad] for field in st]
        out[bad] = _lemire(
            sub,
            np.broadcast_to(excl, out.shape)[bad],
            np.broadcast_to(threshold, out.shape)[bad],
            wide,
        )
        for field, vals in zip(st, sub):
            field[bad] = vals
    return out


#: ``Generator.integers``' tiers that draw, as (first, last) inclusive
#: ranges: 32-bit Lemire, one raw 32-bit word, 64-bit Lemire.  ``high``
#: is an int64, so the raw 64-bit tier at 2⁶⁴−1 cannot be asked for.
_RAW32 = 0xFFFFFFFF
_TIERS = ((1, _RAW32 - 1), (_RAW32, _RAW32), (_RAW32 + 1, np.iinfo(np.int64).max))


class LaneRngs:
    """``num_seeds × n`` independent PCG64 streams, advanced in bulk.

    Lane ``s * n + c`` is seed ``s``'s stream of node ``node_ids[c]``:
    it replicates — bit for bit — the stream of
    ``np.random.default_rng(np.random.SeedSequence(seeds[s]).spawn(N)[node_ids[c]])``
    for any ``N > max(node_ids)``, i.e. exactly the RNG
    :class:`~repro.distributed.network.Network` hands node
    ``node_ids[c]`` when run with ``seed=seeds[s]``.  ``node_ids``
    defaults to ``arange(n)``; a batch over a relabeled subgraph passes
    the original id of each compact vertex, so its lanes draw what the
    full-graph nodes would (nodes left out are simply never spawned).

    All state lives in flat per-lane arrays (LCG hi/lo, increment
    hi/lo, and the one-word 32-bit buffer PCG64 keeps between 32-bit
    draws with its flag), so a bulk :meth:`integers` call gathers its
    lanes' state once, draws on the gathered copy, and scatters it back
    once, regardless of how many lanes draw.
    """

    __slots__ = ("num_seeds", "n", "_state")

    def __init__(
        self,
        seeds: Sequence[int],
        n: int,
        node_ids: np.ndarray | None = None,
    ) -> None:
        verify_replication()
        self.num_seeds = len(seeds)
        self.n = n
        lanes = self.num_seeds * n
        vals = np.empty((lanes, 4), dtype=U64)
        if node_ids is None:
            spawn_keys = np.arange(n, dtype=np.int64)
        else:
            spawn_keys = np.asarray(node_ids, dtype=np.int64)
            if spawn_keys.shape != (n,):
                raise ValueError(
                    f"node_ids must hold one id per lane vertex ({n}), "
                    f"got shape {spawn_keys.shape}"
                )
        with np.errstate(over="ignore"):
            for s, seed in enumerate(seeds):
                pools = _spawned_pools(int(seed), spawn_keys)
                vals[s * n: (s + 1) * n] = _generate_state4(pools)
            # PCG64 seeding: val[0:2] = initstate (hi, lo), val[2:4] =
            # initseq (hi, lo); inc = (initseq << 1) | 1 over 128 bits.
            st = [
                np.zeros(lanes, dtype=U64),
                np.zeros(lanes, dtype=U64),
                (vals[:, 2] << _ONE) | (vals[:, 3] >> _63),
                (vals[:, 3] << _ONE) | _ONE,
            ]
            _step(st)
            lo = st[_SL] + vals[:, 1]
            st[_SH] = st[_SH] + vals[:, 0] + (lo < st[_SL])
            st[_SL] = lo
            _step(st)
        self._state = st + [np.zeros(lanes, dtype=U64), np.zeros(lanes, dtype=bool)]

    def integers(
        self,
        low: int,
        high: int | np.ndarray,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """One ``Generator.integers(low, high)`` draw per selected lane.

        ``lanes`` holds flat lane ids (``seed_index * n + vertex``, any
        integer dtype), each at most once per call; ``high`` is
        exclusive and may be an array aligned with ``lanes``.  Returns
        ``int64`` values and advances exactly the words the real
        per-node Generators would consume (including Lemire rejections
        and the 32-bit buffer).

        The ranges are checked once, by their smallest and largest
        value.  A range of 0 draws nothing, as in NumPy; the others
        fall in ``Generator.integers``' tiers — Lemire on buffered
        32-bit words below 2³²−1, one raw 32-bit word at 2³²−1, and
        128-bit Lemire on raw 64-bit words above.  When every lane
        draws in one tier (each proposal-protocol draw is 32-bit
        Lemire, each Luby draw 64-bit Lemire), the call is one pass
        over the lanes' gathered state; otherwise each tier's lanes
        draw in turn.
        """
        lanes = np.asarray(lanes, dtype=np.intp)  # index once, not per field
        rng = np.asarray(high, dtype=np.int64) - low - 1  # inclusive range
        if lanes.size == 0:
            return np.empty(lanes.shape, dtype=np.int64)
        if rng.ndim:
            rng = np.broadcast_to(rng, lanes.shape)
            r_min, r_max = int(rng.min()), int(rng.max())
        else:
            r_min = r_max = int(rng)
        if r_min < 0:
            raise ValueError("low >= high in bounded draw")
        tiers = [t for t in _TIERS if t[0] <= r_max and r_min <= t[1]]
        if r_min > 0 and len(tiers) == 1:
            return low + self._draw(lanes, rng, tiers[0][0]).astype(np.int64)
        out = np.full(lanes.shape, low, dtype=np.int64)  # a 0 range: no draw
        for first, last in tiers:
            sel = rng >= first
            if last < r_max:
                sel &= rng <= last
            out[sel] += self._draw(lanes[sel], rng[sel], first).astype(np.int64)
        return out

    def _draw(self, lanes: np.ndarray, rng: np.ndarray, tier: int) -> np.ndarray:
        """Draw in the tier starting at ``tier`` on the given lanes' state."""
        st = [field[lanes] for field in self._state]
        with np.errstate(over="ignore"):
            if tier == _RAW32:
                out = _next32(st)
            else:
                excl = rng.astype(U64) + _ONE
                if tier < _RAW32:
                    out = _lemire(st, excl, (_ONE << _32) % excl, False)
                else:  # (2^64 - excl) % excl without 128-bit ints
                    out = _lemire(st, excl, (_ZERO - excl) % excl, True)
        for f in (_SH, _SL, _BUF, _HAS):  # the increments never change
            self._state[f][lanes] = st[f]
        return out



_VERIFIED: bool | None = None


def verify_replication() -> None:
    """One-time cross-check of the lane streams against NumPy itself.

    Draws a few values through :class:`LaneRngs` and through real
    ``Generator`` objects spawned the same way, raising
    ``RuntimeError`` on any mismatch.  Runs lazily on the first lane
    construction so a NumPy build whose (stability-guaranteed) stream
    ever diverged fails loudly up front — batched runs can then fall
    back to the sequential backends, whose results never depend on
    this module.
    """
    global _VERIFIED
    if _VERIFIED is True:
        return
    if _VERIFIED is False:
        raise RuntimeError(
            "batched RNG lanes disagree with numpy.random on this build; "
            "use the sequential array/generator backends instead"
        )
    _VERIFIED = True  # construct LaneRngs below without re-entering
    try:
        seeds, n = [0, 42, 2**33 + 7], 5
        lanes = LaneRngs(seeds, n)
        rngs = [
            np.random.default_rng(c)
            for s in seeds
            for c in np.random.SeedSequence(s).spawn(n)
        ]
        every = np.arange(len(rngs), dtype=np.int64)
        for low, high in [(0, 2), (1, 2000**4 + 1), (0, 3), (0, 2**32), (0, 2)]:
            got = lanes.integers(low, high, every)
            want = [int(r.integers(low, high)) for r in rngs]
            if got.tolist() != want:
                raise AssertionError(f"integers({low}, {high}): {got} != {want}")
    except Exception as exc:  # pragma: no cover - depends on numpy build
        _VERIFIED = False
        raise RuntimeError(
            "batched RNG lanes disagree with numpy.random on this build; "
            "use the sequential array/generator backends instead"
        ) from exc
