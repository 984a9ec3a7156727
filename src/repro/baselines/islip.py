"""iSLIP — round-robin iterative matching (McKeown [23]).

"The algorithm of choice in many of today's routers" per the paper's
introduction.  Like PIM but grants and accepts use round-robin
pointers instead of coins, which desynchronizes the port pointers under
load and drives throughput toward 100% for uniform traffic:

1. **request** — unmatched inputs request all backlogged outputs;
2. **grant** — each unmatched output grants the requesting input
   closest (cyclically) to its grant pointer;
3. **accept** — each input accepts the granting output closest to its
   accept pointer; *only on the first iteration* of a slot do the
   winning pointers advance (one past the accepted port), which is the
   key de-synchronization rule of iSLIP.

Stateful across cell slots, hence a class.  The per-iteration work is
vectorized: grant and accept are ``argmin`` over cyclic-distance key
matrices (``(i − ptr_j) mod N``), one ``(N, N)`` array op per phase,
instead of Python scans over per-port request/grant sets.  Being
deterministic given the pointer state, the vectorized form is exactly
the textbook algorithm — ties cannot occur because cyclic distances
within a column (row) are distinct.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.pim import _request_matrix


class IslipScheduler:
    """iSLIP scheduler state for an N×N switch."""

    def __init__(self, num_inputs: int, num_outputs: int, iterations: int = 4):
        if iterations < 1:
            raise ValueError("need at least one iteration")
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        self.iterations = iterations
        self.grant_ptr = np.zeros(num_outputs, dtype=np.int64)  # per output
        self.accept_ptr = np.zeros(num_inputs, dtype=np.int64)  # per input
        self._in_ids = np.arange(num_inputs, dtype=np.int64)
        self._out_ids = np.arange(num_outputs, dtype=np.int64)
        # Cached cyclic-distance key matrices; only the columns/rows
        # whose pointers moved are recomputed after a first-iteration
        # win (pointers are internal state — mutate them only through
        # schedule()/schedule_matrix()).
        self._gkey = (self._in_ids[:, None] - self.grant_ptr[None, :]) % num_inputs
        self._akey = (self._out_ids[None, :] - self.accept_ptr[:, None]) % num_outputs

    def schedule_matrix(
        self, requests: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One cell-slot schedule on a boolean request matrix.

        ``requests[i, j]`` is ``True`` when input ``i`` has cells
        queued for output ``j``.  Returns matched ``(inputs, outputs)``
        index arrays forming a partial permutation; pointer state
        advances per the first-iteration-only rule.
        """
        requests = np.asarray(requests, dtype=bool)
        ni, no = self.num_inputs, self.num_outputs
        if requests.shape != (ni, no):
            raise ValueError(
                f"request matrix {requests.shape}, expected {(ni, no)}"
            )
        in_free = np.ones(ni, dtype=bool)
        out_free = np.ones(no, dtype=bool)
        mi: list[np.ndarray] = []
        mj: list[np.ndarray] = []
        best = np.empty(ni, dtype=np.int64)
        for it in range(self.iterations):
            live = requests & in_free[:, None]
            live &= out_free[None, :]
            if not live.any():
                break
            # grant: per output, the requesting input closest to its pointer
            gi = np.argmin(np.where(live, self._gkey, ni), axis=0)
            granted = live[gi, self._out_ids]
            jv = self._out_ids[granted]  # outputs that granted...
            iv = gi[granted]  # ...and the input each one granted to
            # accept: per input, the granting output closest to its
            # pointer.  Grant events are compact (≤ one per output), so
            # resolve the per-input argmin with a scatter-min over
            # encoded (accept key, output) — keys within an input's
            # candidates are distinct, so min(enc) ⇔ min(akey).
            enc = self._akey[iv, jv] * no + jv
            best.fill(ni * no + no)
            np.minimum.at(best, iv, enc)
            acc = best[iv] == enc
            ai = iv[acc]
            ajv = jv[acc]
            in_free[ai] = False
            out_free[ajv] = False
            if it == 0 and ai.size:
                # Pointers advance only for first-iteration wins.
                self.grant_ptr[ajv] = (ai + 1) % ni
                self.accept_ptr[ai] = (ajv + 1) % no
                self._gkey[:, ajv] = (
                    self._in_ids[:, None] - self.grant_ptr[ajv][None, :]
                ) % ni
                self._akey[ai, :] = (
                    self._out_ids[None, :] - self.accept_ptr[ai][:, None]
                ) % no
            mi.append(ai)
            mj.append(ajv)
        if not mi:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        return np.concatenate(mi), np.concatenate(mj)

    def schedule(self, demand: list[set[int]]) -> list[tuple[int, int]]:
        """One cell-slot schedule; ``demand[i]`` = backlogged outputs of input i.

        Returns matched ``(input, output)`` pairs.
        """
        if len(demand) != self.num_inputs:
            raise ValueError(
                f"demand for {len(demand)} inputs, expected {self.num_inputs}"
            )
        mi, mj = self.schedule_matrix(_request_matrix(demand, self.num_outputs))
        return [(int(i), int(j)) for i, j in zip(mi, mj)]
