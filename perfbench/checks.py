"""Output checks.  Each returns a list of error strings, empty when correct.

The checks recompute what the program should have produced from the
generator's own arrays; apart from ``Model.struct_scores_all_tails`` for
raw scores they share no code with the program.
"""

from __future__ import annotations

import numpy as np

from gen import TailIndex, relation_tail_masks, with_inverses

UNIT_TOL = 1e-9
SHOWN_ERRORS = 3  # per operation; the rest are counted
TOP_K = 10        # candidates in a detail row's top list


def first_errors(errors: list[str]) -> list[str]:
    if len(errors) <= SHOWN_ERRORS:
        return errors
    return errors[:SHOWN_ERRORS] + [f"... and {len(errors) - SHOWN_ERRORS} more"]


# ---------------------------------------------------------------------------
# filtered ranking
# ---------------------------------------------------------------------------

def expected_detail(model, splits: dict[str, np.ndarray], num_entities: int,
                    num_relations: int, alpha: float) -> list[str]:
    """The ``eval --detail`` rows for the test split, computed independently.

    Candidates known true in train, valid or test (other than the gold
    tail) are dropped; candidates outside the train e(r) lose ``alpha``;
    the rank counts every kept candidate scoring at least the gold score
    (pessimistic ties); the top list is ordered by (-score, id).
    """
    full = {s: with_inverses(a, num_relations) for s, a in splits.items()}
    known = TailIndex(np.concatenate(list(full.values())), num_relations)
    in_train_r = relation_tail_masks(full["train"], num_entities, num_relations)
    ids = np.arange(num_entities)
    rows = []
    for i, (h, r, t) in enumerate(full["test"].tolist()):
        scores = np.asarray(model.struct_scores_all_tails(h, r), dtype=np.float64)
        if alpha > 0:
            scores = scores - np.where(in_train_r[r], 0.0, alpha)
        keep = np.ones(num_entities, dtype=bool)
        keep[known.tails_of(h, r)] = False
        keep[t] = True
        rank = int(np.count_nonzero(keep & (scores >= scores[t])))  # gold counts as 1
        order = np.lexsort((ids, -scores))
        top = order[keep[order]][:TOP_K]
        top_s = ",".join(f"{e}:{scores[e]:.6f}" for e in top.tolist())
        rows.append(f"{i}\t{h}\t{r}\t{t}\t{rank}\t{top_s}")
    return rows


def check_detail(text: str, expected: list[str]) -> list[str]:
    lines = text.rstrip("\n").split("\n")
    if not lines or lines[0] != "query\thead\trelation\tgold\trank\ttop10":
        return ["detail file header is missing or wrong"]
    got = lines[1:]
    errors = []
    if len(got) != len(expected):
        errors.append(f"detail file has {len(got)} queries, expected {len(expected)}")
    for g, e in zip(got, expected):
        if g != e:
            errors.append(f"detail row differs: got {g[:120]!r}, expected {e[:120]!r}")
    return first_errors(errors)


# ---------------------------------------------------------------------------
# negative sampling
# ---------------------------------------------------------------------------

def row_positions(queue_rows: np.ndarray) -> dict[bytes, int]:
    return {row.tobytes(): i for i, row in enumerate(queue_rows)}


def check_hardest(queue_rows: np.ndarray, positions: dict[bytes, int],
                  query: np.ndarray, tau: float, k: int,
                  hardest: np.ndarray) -> list[str]:
    """``hardest`` must be the k queue members with the largest logits,
    largest first, the more recent member first among equal logits.

    ``queue_rows`` is the queue before the call, oldest first, so a row's
    position is its recency; ``positions`` is ``row_positions(queue_rows)``.
    """
    n = len(queue_rows)
    want = min(k, n)
    if hardest.shape != (want, queue_rows.shape[1]):
        return [f"hardest has shape {hardest.shape}, expected {(want, queue_rows.shape[1])}"]
    sel = np.array([positions.get(row.tobytes(), -1) for row in hardest])
    if np.any(sel < 0):
        return [f"hardest row {int(np.argmax(sel < 0))} is not a queue member"]
    if np.unique(sel).size != want:
        return ["hardest repeats a queue member"]
    logits = queue_rows @ np.asarray(query, dtype=np.float64).ravel() / tau
    ls = logits[sel]
    ordered = (ls[:-1] > ls[1:]) | ((ls[:-1] == ls[1:]) & (sel[:-1] > sel[1:]))
    if not np.all(ordered):
        return [f"hardest rows {int(np.argmin(ordered))} and "
                f"{int(np.argmin(ordered)) + 1} are out of order"]
    rest = np.ones(n, dtype=bool)
    rest[sel] = False
    if rest.any():
        last = ls[-1]
        above = rest & ((logits > last) | ((logits == last) & (np.arange(n) > sel[-1])))
        if above.any():
            return [f"queue member {int(np.argmax(above))} outranks the last hardest row"]
    return []


def check_mixed(mixed: np.ndarray, count: int, dim: int) -> list[str]:
    if mixed.shape != (count, dim):
        return [f"mixed negatives have shape {mixed.shape}, expected {(count, dim)}"]
    norms = np.linalg.norm(mixed, axis=1)
    bad = np.abs(norms - 1.0) > UNIT_TOL
    if bad.any():
        return [f"mixed row {int(np.argmax(bad))} has norm {norms[bad][0]:.12f}"]
    return []


def intra_pool(relation_tails: np.ndarray, true_tails: np.ndarray) -> np.ndarray:
    """Boolean mask of the entities intra-relation sampling may draw from.

    ``relation_tails`` marks e(r) in train and ``true_tails`` lists
    e(h, r); the pool is e(r) - e(h, r), or every entity outside e(h, r)
    when that difference is empty.
    """
    pool = relation_tails.copy()
    pool[true_tails] = False
    if not pool.any():
        pool[:] = True
        pool[true_tails] = False
    return pool


def check_intra(tails: list[int], pool: np.ndarray, count: int) -> list[str]:
    """``tails`` must be min(count, |pool|) distinct members of ``pool``."""
    want = min(count, int(np.count_nonzero(pool)))
    if len(tails) != want or len(set(tails)) != want:
        return [f"intra-relation tails {tails} are not {want} distinct ids"]
    bad = [t for t in tails if not (0 <= t < len(pool) and pool[t])]
    if bad:
        return [f"intra-relation tails {bad} are outside the sampling pool"]
    return []


def check_mask(mask: np.ndarray, queries: np.ndarray, train_index: TailIndex) -> list[str]:
    """Entry (q, j) is set iff tail j is q's positive or train-true for q."""
    n = len(queries)
    if mask.shape != (n, n) or mask.dtype != bool:
        return [f"in-batch mask has shape {mask.shape} and dtype {mask.dtype}"]
    if not mask.diagonal().all():
        return ["in-batch mask diagonal is not set"]
    tails = queries[:, 2]
    for q, (h, r, t) in enumerate(queries.tolist()):
        want = (tails == t) | np.isin(tails, train_index.tails_of(h, r))
        if not np.array_equal(mask[q], want):
            return [f"in-batch mask row {q} is wrong"]
    return []
