"""Exception types shared across the solver.

Every solver failure carries a short machine-parsable ``reason`` token so the
CLI can emit a one-line diagnostic and map the failure onto an exit code.
"""


class SimulationError(RuntimeError):
    """Base class for numerical failures during a run (CLI exit code 2)."""

    reason = "numerical_failure"


class CflViolationError(SimulationError):
    """Requested time step exceeds the stability bound."""

    reason = "cfl_violation"

    def __init__(self, dt, dt_max, where=""):
        self.dt = dt
        self.dt_max = dt_max
        loc = f" ({where})" if where else ""
        super().__init__(f"dt={dt:g} exceeds stable limit {dt_max:g}{loc}")


class UnstableRunError(SimulationError):
    """Non-finite value appeared in a flux field."""

    reason = "instability"

    def __init__(self, step, face, pipe=""):
        self.step = step
        self.face = face
        loc = f" of pipe {pipe}" if pipe else ""
        super().__init__(f"non-finite flux at face {face}{loc}, step {step}")


class PositivityError(SimulationError):
    """A density dropped to zero or below."""

    reason = "positivity_loss"

    def __init__(self, step, cell, pipe=""):
        self.step = step
        self.cell = cell
        loc = f" of pipe {pipe}" if pipe else ""
        super().__init__(f"non-positive density in cell {cell}{loc}, step {step}")


class InfeasibleNodeError(SimulationError):
    """Nodal pressure equation has no positive solution (node drained)."""

    reason = "infeasible_node"

    def __init__(self, node, detail=""):
        self.node = node
        msg = f"no positive nodal pressure at node {node}"
        super().__init__(msg + (f": {detail}" if detail else ""))


class SteadyStateError(SimulationError):
    """Steady-state initializer failed to converge or went infeasible."""

    reason = "steady_state_failure"


class ConfigError(ValueError):
    """Configuration failed validation; collects every violation found."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))
