"""Explicit staggered-grid transient simulator for gas pipeline networks."""

from .eos import (CngaGas, IdealGas, NonIsothermalCnga, TemperatureProfile,
                  cnga_coefficients, gas_constant_from_gravity, make_eos)
from .errors import (CflViolationError, ConfigError, InfeasibleNodeError,
                     PositivityError, SimulationError, SteadyStateError,
                     UnstableRunError)
from .network import DemandBC, Network, Node, PipeEdge, SlackBC, network_step
from .pipe import (FluxBC, PipeGeometry, PipeGrid, PipeState, PressureBC,
                   cfl_max_dt, density_update, friction_invert,
                   interior_flux_update, step, total_mass)
from .profiles import (Constant, Harmonic, PiecewiseLinear, StepSequence,
                       TimeProfile, profile_from_config)
from .steady import SteadySolution, solve_steady_state

__version__ = "0.1.0"
