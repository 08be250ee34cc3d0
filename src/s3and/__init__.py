"""Subgraph similarity search under aggregated neighbor differences.

The package answers this question over a keyword-labeled graph: given a
small connected query graph, find every same-sized connected induced
subgraph whose vertices cover the query keywords and whose aggregated
neighbor difference (max or sum over query vertices) stays within a
threshold. Search runs through keyword signatures, degree based lower
bounds, and a balanced signature tree; an exhaustive oracle and an
index-free baseline give reference answers.

Each module's ``__all__`` is the one list of its public names; the package
exports all of them.
"""

from . import engine, graph, index, pruning, semantics, signatures, workbench
from .engine import *  # noqa: F403
from .graph import *  # noqa: F403
from .index import *  # noqa: F403
from .pruning import *  # noqa: F403
from .semantics import *  # noqa: F403
from .signatures import *  # noqa: F403
from .workbench import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (graph, semantics, signatures, pruning, index, engine, workbench)
    for name in module.__all__
] + ["__version__"]
