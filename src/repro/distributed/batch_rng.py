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
  raw words at exactly 2³²−1 / 2⁶⁴−1, 128-bit Lemire in between —
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
_PCG_MULT_HI = U64(0x2360ED051FC65DA4)
_PCG_MULT_LO = U64(0x4385DF649FCCF645)

_LOW32 = U64(0xFFFFFFFF)
_FULL64 = 0xFFFFFFFFFFFFFFFF


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
    return out32[:, 0::2].astype(U64) | (out32[:, 1::2].astype(U64) << U64(32))


def _mulhi64(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product of two uint64 arrays."""
    a_lo = a & _LOW32
    a_hi = a >> U64(32)
    b_lo = b & _LOW32
    b_hi = b >> U64(32)
    lo_lo = a_lo * b_lo
    hi_lo = a_hi * b_lo
    lo_hi = a_lo * b_hi
    cross = (lo_lo >> U64(32)) + (hi_lo & _LOW32) + lo_hi
    return a_hi * b_hi + (hi_lo >> U64(32)) + (cross >> U64(32))


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

    All state lives in flat ``uint64`` arrays (LCG hi/lo, increment
    hi/lo, and the one-word 32-bit buffer PCG64 keeps between 32-bit
    draws), so a bulk :meth:`integers` call is a handful of array ops
    regardless of how many lanes draw.
    """

    __slots__ = ("num_seeds", "n", "_sh", "_sl", "_ih", "_il", "_buf", "_has_buf")

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
            self._ih = (vals[:, 2] << U64(1)) | (vals[:, 3] >> U64(63))
            self._il = (vals[:, 3] << U64(1)) | U64(1)
            self._sh = np.zeros(lanes, dtype=U64)
            self._sl = np.zeros(lanes, dtype=U64)
            self._step(slice(None))
            lo = self._sl + vals[:, 1]
            self._sh += vals[:, 0] + (lo < self._sl)
            self._sl = lo
            self._step(slice(None))
        self._buf = np.zeros(lanes, dtype=U64)
        self._has_buf = np.zeros(lanes, dtype=bool)

    def _step(self, idx) -> None:
        """state <- state * MULT + inc (mod 2^128) on the selected lanes."""
        sh, sl = self._sh[idx], self._sl[idx]
        ph = sh * _PCG_MULT_LO + sl * _PCG_MULT_HI + _mulhi64(sl, _PCG_MULT_LO)
        pl = sl * _PCG_MULT_LO
        lo = pl + self._il[idx]
        self._sh[idx] = ph + self._ih[idx] + (lo < pl)
        self._sl[idx] = lo

    def _next64(self, idx: np.ndarray) -> np.ndarray:
        """One raw 64-bit word per selected lane (XSL-RR output)."""
        self._step(idx)
        sh, sl = self._sh[idx], self._sl[idx]
        rot = sh >> U64(58)
        xored = sh ^ sl
        return (xored >> rot) | (xored << (U64(64) - rot & U64(63)))

    def _next32(self, idx: np.ndarray) -> np.ndarray:
        """One 32-bit word per selected lane, low half first, buffered."""
        out = np.empty(idx.shape, dtype=U64)
        buffered = self._has_buf[idx]
        if buffered.any():
            hit = idx[buffered]
            out[buffered] = self._buf[hit]
            self._has_buf[hit] = False
        fresh = ~buffered
        if fresh.any():
            miss = idx[fresh]
            word = self._next64(miss)
            out[fresh] = word & _LOW32
            self._buf[miss] = word >> U64(32)
            self._has_buf[miss] = True
        return out

    def integers(
        self,
        low: int,
        high: int | np.ndarray,
        lanes: np.ndarray,
    ) -> np.ndarray:
        """One ``Generator.integers(low, high)`` draw per selected lane.

        ``lanes`` holds flat lane ids (``seed_index * n + vertex``),
        each at most once per call; ``high`` is exclusive and may be an
        array aligned with ``lanes``.  Returns ``int64`` values and
        advances exactly the words the real per-node Generators would
        consume (including Lemire rejections and the 32-bit buffer).
        """
        lanes = np.asarray(lanes, dtype=np.int64)
        out = np.empty(lanes.shape, dtype=np.int64)
        rng = np.asarray(high, dtype=np.int64) - low - 1  # inclusive range
        rng = np.broadcast_to(rng, lanes.shape)
        if (rng < 0).any():
            raise ValueError("low >= high in bounded draw")
        with np.errstate(over="ignore"):
            zero = rng == 0
            out[zero] = low  # no words consumed, as in NumPy
            small = (rng > 0) & (rng < 0xFFFFFFFF)
            if small.any():
                out[small] = low + self._lemire32(
                    lanes[small], rng[small].astype(U64)
                ).astype(np.int64)
            raw32 = rng == 0xFFFFFFFF
            if raw32.any():
                out[raw32] = low + self._next32(lanes[raw32]).astype(np.int64)
            big = (rng > 0xFFFFFFFF) & (rng.astype(U64) < U64(_FULL64))
            if big.any():
                out[big] = low + self._lemire64(
                    lanes[big], rng[big].astype(U64)
                ).astype(np.int64)
            raw64 = rng.astype(U64) == U64(_FULL64)
            if raw64.any():
                out[raw64] = low + self._next64(lanes[raw64]).astype(np.int64)
        return out

    def _lemire32(self, idx: np.ndarray, rng: np.ndarray) -> np.ndarray:
        """Lemire's bounded draw on buffered 32-bit words (rng < 2³²−1)."""
        rng_excl = rng + U64(1)
        threshold = (U64(1) << U64(32)) % rng_excl  # == (2^32 - excl) % excl
        out = np.empty(idx.shape, dtype=U64)
        pending = np.arange(idx.size)
        while pending.size:
            m = self._next32(idx[pending]) * rng_excl[pending]
            ok = (m & _LOW32) >= threshold[pending]
            out[pending[ok]] = m[ok] >> U64(32)
            pending = pending[~ok]
        return out

    def _lemire64(self, idx: np.ndarray, rng: np.ndarray) -> np.ndarray:
        """Lemire's bounded draw on raw 64-bit words (2³²−1 < rng < 2⁶⁴−1)."""
        rng_excl = rng + U64(1)
        # (2^64 - rng_excl) % rng_excl without 128-bit ints.
        threshold = (U64(0) - rng_excl) % rng_excl
        out = np.empty(idx.shape, dtype=U64)
        pending = np.arange(idx.size)
        while pending.size:
            word = self._next64(idx[pending])
            excl = rng_excl[pending]
            hi = _mulhi64(word, excl)
            ok = (word * excl) >= threshold[pending]
            out[pending[ok]] = hi[ok]
            pending = pending[~ok]
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
