"""Pruning stages of the mapping flow (Fig 4).

Three filters act on the live partial mappings (ACMAP and the
stochastic stage on the binder's scored candidates, which answer the
same ``cost``/``fits_*`` queries):

- **stochastic pruning** (basic flow, Sec III-B): caps the
  exponentially-growing set of partial mappings; keeps an elite by
  cost plus a random sample of the rest (seeded, reproducible);
- **ACMAP** (Sec III-D.2): approximate context-memory-aware pruning,
  applied *before* the stochastic pruning, using the cheap pessimistic
  PNOP bound — may keep mappings that will not fit and may drop
  mappings that would, exactly as the paper describes;
- **ECMAP** (Sec III-D.3): exact context-memory-aware pruning with the
  true PNOP count of the partial mapping, applied at every scheduling
  step boundary.
"""

from __future__ import annotations


def acmap_filter(partials):
    """Approximate context-memory aware pruning.

    ``fits_approx`` reads the overflow counter ``occupy`` maintains
    (or a candidate's scored copy of it), so the whole filter is O(1)
    per item instead of a scan over every tile's context words.
    """
    return [pm for pm in partials if pm.fits_approx()]


def ecmap_filter(partials):
    """Exact context-memory aware pruning (same O(1) counter check)."""
    return [pm for pm in partials if pm.fits_exact()]


def stochastic_prune(partials, cap, rng):
    """Cap the live set: cost elite + weighted random sample.

    The paper prunes "depending on a threshold function" with a random
    component; we keep the ``cap/2`` cheapest mappings outright and
    fill the rest with a rank-weighted sample, so diversity survives
    without losing the best-known prefix.
    """
    if len(partials) <= cap:
        return list(partials)
    ranked = sorted(partials, key=lambda pm: pm.cost())
    elite_count = max(1, cap // 2)
    survivors = ranked[:elite_count]
    pool = ranked[elite_count:]
    weights = [1.0 / (rank + 2) for rank in range(len(pool))]
    total = sum(weights)
    probabilities = [w / total for w in weights]
    picks = rng.choice(len(pool), size=cap - elite_count, replace=False,
                       p=probabilities)
    survivors.extend(pool[int(i)] for i in picks)
    return survivors
