"""SPEC-like ``sjeng`` — game-tree search with transposition-table probes.

Mechanistic stand-in for 458.sjeng: alpha-beta search over a synthetic
game whose dominant memory behaviour is (a) probing a multi-megabyte
transposition table at hash-random indexes — near-worst-case for any
indexing function, which is why sjeng *regresses* under non-conventional
indexes in the paper's Figure 8 — and (b) touching small hot board/history
arrays at every node.

The search is a real negamax with a Zobrist-hashed table; determinism and
best-move stability are asserted in tests.
"""

from __future__ import annotations

from ...trace.recorder import Recorder
from ..base import Workload, register_workload

__all__ = ["SjengWorkload"]

_TT_ENTRY = 16


@register_workload
class SjengWorkload(Workload):
    name = "sjeng"
    suite = "spec"
    description = "Negamax game-tree search with a Zobrist transposition table"
    access_pattern = "hash-random table probes + hot board/history arrays"

    def kernel(self, m: Recorder, scale: float) -> None:
        tt_entries = 1 << max(10, int(round(17 * min(scale, 1.0))))  # 128K entries
        depth = 5 if scale >= 0.5 else 3
        positions = self.scaled(10, scale, minimum=1)
        tt_arr = m.space.mmap_array(_TT_ENTRY, tt_entries, "transposition")
        board_arr = m.space.static_array(4, 64, "board")
        hist_arr = m.space.static_array(4, 64 * 12, "history_heuristic")
        zob = m.rng.integers(1, 1 << 62, size=(64, 12))
        tt: dict[int, tuple[int, float]] = {}
        rng = m.rng

        def evaluate(state: tuple[int, ...]) -> float:
            # Hot board sweep on every leaf.
            total = 0
            for sq in range(0, 64, 4):
                m.load_elem(board_arr, sq)
                total += state[sq % len(state)]
            return (total % 97) - 48.0

        def negamax(state: tuple[int, ...], h: int, d: int, alpha: float, beta: float) -> float:
            idx = h % tt_entries
            m.load_elem(tt_arr, idx)  # TT probe (the scattered access)
            cached = tt.get(idx)
            if cached is not None and cached[0] >= d:
                return cached[1]
            if d == 0:
                return evaluate(state)
            best = -1e9
            moves = [(int(rng.integers(0, 64)), int(rng.integers(0, 12))) for _ in range(6)]
            for sq, piece in moves:
                m.load_elem(hist_arr, sq * 12 + piece)
                child = tuple((s + sq + piece) % 97 for s in state)
                ch = h ^ int(zob[sq, piece])
                score = -negamax(child, ch, d - 1, -beta, -alpha)
                if score > best:
                    best = score
                m.store_elem(hist_arr, sq * 12 + piece)
                alpha = max(alpha, score)
                if alpha >= beta:
                    break
            tt[idx] = (d, best)
            m.store_elem(tt_arr, idx)  # TT store
            return best

        best_scores = []
        try:
            for p in range(positions):
                state = tuple(int(rng.integers(0, 97)) for _ in range(8))
                h = int(rng.integers(1, 1 << 62))
                for sq in range(64):
                    m.store_elem(board_arr, sq)
                best_scores.append(negamax(state, h, depth, -1e9, 1e9))
        finally:
            # negamax reaches itself through its closure cell; emptying the
            # cell breaks that cycle, which would otherwise keep the recorder
            # alive until a full collection (also when the cut stops the
            # search).
            del negamax
        m.builder.meta["scores_head"] = best_scores[:4]
        m.builder.meta["tt_entries"] = tt_entries
