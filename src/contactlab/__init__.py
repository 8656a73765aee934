"""contactlab: a numerical laboratory for contact open books and surgery models.

Pointwise exterior calculus on oracle-defined forms, the embedded sphere
cotangent bundle with its generalized Dehn twists, the flat surgery model
and its Liouville transfers, deterministic RK4 flows with event detection,
open book assembly checks, the surgery monodromy computation, and a symbolic
move calculus for abstract open books.
"""

__version__ = "0.1.0"


def active_backend() -> str:
    """The numeric backend in use: flows run on one NumPy/Python integrator."""
    return "numpy"


__all__ = ["active_backend", "__version__"]
