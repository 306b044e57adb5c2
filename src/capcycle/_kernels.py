"""Phase propagation of the protocol simulator by blocked exact powers.

Within one phase the circuit is linear and time-invariant, so on the augmented
state ``z = (v_main, v_branch, 1)`` one internal step is ``z+ = M z`` with

    M = [[a11, a12, b1],
         [a21, a22, b2],
         [  0,   0,  1]]

and the state after ``k`` steps is ``M^k z``.  A table of ``M^1 .. M^B``
(built by doubling, cached per coefficient tuple) turns a block of ``B`` steps
into one matrix-vector product: only the two state rows of each power are
kept, stacked into a ``(2B, 3)`` array, so ``table[:2b] @ z`` yields the
``b`` successive states interleaved.  Rest phases run in blocks of up to
``TABLE_CAP`` steps; charge and discharge phases run in ``RAMP_BLOCK``-step
blocks and stop at the first step whose terminal voltage crosses the limit.
See Van Loan (1978), "Computing integrals involving the matrix exponential".
"""

from __future__ import annotations

import functools

import numpy as np

# Phase-loop modes.
MODE_CHARGE = 0      # terminate when terminal voltage rises to v_stop
MODE_DISCHARGE = 1   # terminate when terminal voltage falls to v_stop
MODE_FIXED = 2       # run exactly max_steps (rest phases)

TABLE_CAP = 1 << 15
"""Most powers kept in one table (1.5 MB); longer phases loop over blocks."""

RAMP_BLOCK = 256
"""Block length of charge and discharge phases, which stop at a crossing."""


@functools.lru_cache(maxsize=8)
def _power_table(coeffs: tuple[float, ...], n: int) -> np.ndarray:
    """State rows of ``M^1 .. M^n`` as a read-only ``(2n, 3)`` array."""
    a11, a12, a21, a22, b1, b2 = coeffs
    # The last row of every power is (0, 0, 1), so the state rows of M^j
    # times the whole of M^k give the state rows of M^(j+k).
    rows = np.empty((n, 2, 3))
    rows[0] = ((a11, a12, b1), (a21, a22, b2))
    k = 1
    while k < n:  # rows[:k] holds M^1..M^k
        c = min(k, n - k)
        rows[k : k + c] = rows[:c] @ np.vstack((rows[k - 1], (0.0, 0.0, 1.0)))
        k += c
    table = rows.reshape(2 * n, 3)
    table.flags.writeable = False
    return table


def run_phase(
    v_main,
    v_branch,
    a11,
    a12,
    a21,
    a22,
    b1,
    b2,
    i_applied,
    r_series,
    mode,
    v_stop,
    eps,
    max_steps,
    n_sub,
    countdown,
    out_v,
    out_i,
    out_start,
):
    """Advance one protocol phase; write samples every ``n_sub`` internal steps.

    The state update is ``x+ = Ad x + bd`` with ``bd`` already scaled by the
    phase current.  A sample is the terminal voltage ``v_main + i*R`` carrying
    the current of the internal step that ends on the sample instant; the
    termination test applies to every step (sample or not), and the crossing
    step still writes its sample when one falls due, carrying the active
    current.  ``countdown`` is the number of steps until the next sample.

    Returns ``(v_main, v_branch, steps, out_next, countdown, crossed)``.
    The caller sizes ``out_v`` and ``out_i`` for every sample of the phase.
    """
    block = min(TABLE_CAP, max(1, max_steps)) if mode == MODE_FIXED else RAMP_BLOCK
    table = _power_table((a11, a12, a21, a22, b1, b2), block)
    z = np.array([v_main, v_branch, 1.0])
    v_offset = i_applied * r_series
    k = out_start
    steps = 0
    crossed = False
    while steps < max_steps and not crossed:
        b = min(block, max_steps - steps)
        states = (table[: 2 * b] @ z).reshape(b, 2)
        if mode != MODE_FIXED:
            vt = states[:, 0] + v_offset
            hit = vt >= v_stop - eps if mode == MODE_CHARGE else vt <= v_stop + eps
            first = int(np.argmax(hit))
            if hit[first]:
                b = first + 1
                crossed = True
        # Samples fall on this block's steps countdown, countdown + n_sub, ...
        sampled = states[countdown - 1 : b : n_sub, 0]
        out_v[k : k + sampled.size] = sampled + v_offset
        out_i[k : k + sampled.size] = i_applied
        k += sampled.size
        countdown = (countdown - b - 1) % n_sub + 1
        steps += b
        z[:2] = states[b - 1]
    return float(z[0]), float(z[1]), steps, k, countdown, crossed
