"""Simulator and training framework for privacy-aware joint RSU association
and transmit-power control on a two-lane freeway."""

from .agents import TrainerConfig
from .env import EnvConfig

# The harness imports every module but the CLI, so importing the package loads
# them all for tools that patch module-level names (perfbench's tracer). It
# comes last: imported first, it nests every other module's import inside its
# own, which raised peak memory by 0.8 MB when bytecode is compiled at import.
from . import harness  # noqa: E402,F401

__version__ = "0.1.0"
