"""Per-model inference cost and memory footprint reports (Table 3).

Builds the right half of Table 3: for each model class, the ops per
prediction (as metered by the firmware compiler), the memory footprint
(honest packed-image bytes plus the paper's accounting convention), and
the finest gating granularity the microcontroller supports for it.
"""

from __future__ import annotations

import dataclasses

from repro.errors import BudgetExceededError
# forest_ops lives beside the op costs it sums; re-exported from here.
from repro.firmware.codegen import (FirmwareProgram, compile_model,
                                    forest_ops)
from repro.firmware.ucontroller import Microcontroller
from repro.ml.base import Estimator


@dataclasses.dataclass(frozen=True)
class CostReport:
    """One Table-3 row for a compiled model."""

    model_name: str
    kind: str
    n_inputs: int
    ops_per_prediction: int
    memory_bytes: int
    paper_footprint_bytes: int | None
    finest_granularity: int | None

    def fits(self, budget_ops: int) -> bool:
        """Whether the model fits a per-prediction ops budget."""
        return self.ops_per_prediction <= budget_ops


def cost_report(model: Estimator, model_name: str,
                microcontroller: Microcontroller | None = None,
                program: FirmwareProgram | None = None) -> CostReport:
    """Compile a model and report its firmware deployment costs."""
    microcontroller = microcontroller or Microcontroller()
    program = program or compile_model(model)
    try:
        finest: int | None = microcontroller.finest_granularity(
            program.ops_per_prediction)
    except BudgetExceededError:
        finest = None
    return CostReport(
        model_name=model_name,
        kind=program.kind,
        n_inputs=program.n_inputs,
        ops_per_prediction=program.ops_per_prediction,
        memory_bytes=program.memory_bytes,
        paper_footprint_bytes=program.metadata.get(
            "paper_footprint_bytes"),
        finest_granularity=finest,
    )


def mlp_ops(layer_sizes: list[int]) -> int:
    """Analytic MLP inference cost for a topology (input..output).

    Used by the hyperparameter screen (Figure 6) to restrict candidate
    topologies to a granularity's budget without training them first.
    """
    from repro.firmware import codegen
    macs = sum(a * b for a, b in zip(layer_sizes[:-1], layer_sizes[1:]))
    hidden = sum(layer_sizes[1:-1])
    return codegen.MAC_OPS * macs + codegen.RELU_OPS * hidden

