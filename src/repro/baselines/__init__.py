"""Comparator systems used by the paper's evaluation.

* :mod:`repro.baselines.single_tier` — device-only, edge-only, cloud-only;
* :mod:`repro.baselines.neurosurgeon` — Neurosurgeon (Kang et al., ASPLOS'17):
  the optimal single split point of a *chain* DNN between the device and the
  cloud;
* :mod:`repro.baselines.dads` — DADS (Hu et al., INFOCOM'19): the optimal
  two-way edge/cloud partition of a DAG DNN found with a min-cut;
* :mod:`repro.baselines.deepthings` — DeepThings-style fused tile partition
  (FTP) with overlapping tiles, used as the ablation reference for VSM.  It
  is not re-exported here: it pulls in :mod:`repro.tensors`, which no
  partitioning strategy needs.
"""

from repro.baselines.single_tier import SingleTierBaseline, SingleTierStrategy, single_tier_plan
from repro.baselines.neurosurgeon import (
    NeurosurgeonPartitioner,
    NeurosurgeonResult,
    NeurosurgeonStrategy,
)
from repro.baselines.dads import DadsPartitioner, DadsResult, DadsStrategy

__all__ = [
    "DadsPartitioner",
    "DadsResult",
    "DadsStrategy",
    "NeurosurgeonPartitioner",
    "NeurosurgeonResult",
    "NeurosurgeonStrategy",
    "SingleTierBaseline",
    "SingleTierStrategy",
    "single_tier_plan",
]
