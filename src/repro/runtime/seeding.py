"""Deterministic seed derivation for parallel execution.

Every parallel code path in the system derives its random streams from
*task identity* (design index, mutation node) — never from
worker identity or schedule — so a run is bit-identical whether it
executes sequentially, on two workers, or on twenty.  This module is the
single home of those derivations.

Both derivations are pinned to their historical arithmetic because
committed artifacts depend on the exact streams they produce (the RVDG
corpus behind the committed model fixture, and every recorded campaign
outcome):

* :func:`corpus_design_seed` — the per-design testbench seed of corpus
  generation;
* :func:`mutant_topup_seed` — the per-mutant extra-testbench seed of the
  campaign correct-trace top-up.
"""

from __future__ import annotations


def corpus_design_seed(seed: int, design_index: int) -> int:
    """Testbench-suite seed of one corpus design (pinned legacy stream).

    The arithmetic form predates this module and is load-bearing: the
    committed model fixture was trained on the corpus these seeds
    produce.
    """
    return seed * 7919 + design_index


def mutant_topup_seed(seed: int, extra_batch: int, node_index: int) -> int:
    """Extra-testbench seed of a campaign's correct-trace top-up batch.

    Derived from the mutation's ``node_index`` (task identity), not from
    the executing worker, so parallel campaigns reproduce the sequential
    trace sets exactly.  Pinned legacy stream — see
    :func:`corpus_design_seed`.
    """
    return seed + 1000 * extra_batch + node_index
