"""Group-invariant rank-bounded linear regression.

Closed-form optimizers for hard-wired, regularized, and data-augmented
invariant regression, regularization-path tracing, exhaustive critical-point
enumeration, gradient-descent training harnesses, and tangent-kernel checks
for shallow nonlinear networks.

Every submodule but ``cli`` is registered lazily: ``invlowrank.<name>`` is in
``sys.modules`` and on the package from the start, and its code runs on the
first attribute access, so a command executes only the modules it uses.
"""

import importlib.util
import sys

_SUBMODULES = ("activations", "checks", "config", "datagen", "errors", "groups", "linalg",
               "matio", "ntk", "solvers", "tolerances", "training")


def _register_lazily(name: str):
    """Put ``invlowrank.<name>`` in sys.modules; its code runs on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


for _name in _SUBMODULES:
    globals()[_name] = _register_lazily(_name)
del _name

__all__ = [
    "activations",
    "errors",
    "groups",
    "linalg",
    "ntk",
    "solvers",
    "tolerances",
    "training",
]

__version__ = "0.1.0"
