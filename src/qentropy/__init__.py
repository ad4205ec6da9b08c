"""Entropy growth under doubly stochastic quantum evolution.

The package proves by computation that the expectation of the
level-counting entropy ln(N + 1/2) can only grow when decreasing
populations evolve through any doubly stochastic transition matrix, and
works the exactly solvable driven harmonic oscillator end to end:
classical phase-space kernel, Charlier-polynomial transition
probabilities, an independent Schrodinger-propagator oracle, and a CLI
that emits the reference figure data as CSV.
"""

_MODULES = ("classical", "majorization", "quadrature", "quantum", "schrodinger",
            "verify")
_FROM_MAJORIZATION = (
    "DoublyStochasticError",
    "EntropyReport",
    "ProbabilityVector",
    "TransitionMatrix",
    "check_doubly_stochastic",
    "diagonal_entropy",
    "entropy_change",
    "evolve_distribution",
    "random_unistochastic",
    "von_neumann_entropy",
)

__version__ = "0.1.0"

__all__ = [*_MODULES, *_FROM_MAJORIZATION, "__version__"]


def __getattr__(name: str):
    """Import a module, or a majorization name, on first use: a command
    loads only the modules it runs."""
    if name in _MODULES:
        # the import statement's path binds the module here, and unlike
        # importlib.import_module it shows in -X importtime
        __import__(f"{__name__}.{name}")
        return globals()[name]
    if name in _FROM_MAJORIZATION:
        from . import majorization

        globals()[name] = value = getattr(majorization, name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
