"""Testability measures: SCOAP, COP, incremental updates and labelling."""

from repro.testability.scoap import SCOAP_INF, ScoapResult, compute_scoap
from repro.testability.cop import CopResult, compute_cop
from repro.testability.incremental import refresh_observability
from repro.testability.labels import LabelConfig, LabelResult, label_nodes

__all__ = [
    "SCOAP_INF",
    "ScoapResult",
    "compute_scoap",
    "CopResult",
    "compute_cop",
    "refresh_observability",
    "LabelConfig",
    "LabelResult",
    "label_nodes",
]
