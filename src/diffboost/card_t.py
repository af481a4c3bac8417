"""Import path of the CARD-T baseline, whose trainer and sampler live in :mod:`diffboost.dbt`."""

# kept: the benchmark's tracer looks up diffboost.card_t.train_card_t and sample_card_t
# and fails loudly when they are missing, and the tests import both from here
from .dbt import sample_card_t, train_card_t

__all__ = ["train_card_t", "sample_card_t"]
