"""Greedy layer-wise deep dictionary learning.

Factor a data matrix through a chain of dictionaries, one layer at a time,
with closed-form alternating updates. Two trainers: a plain unsupervised
stack with a sparse final layer, and a label-aware variant that pulls the
codes of same-class samples together at every layer. Plus nearest-neighbor
evaluation and a repeated-split experiment harness.

The package exports exactly the names in its modules' ``__all__`` lists.
"""

from . import baseline, classify, data, harness, intraclass, kernels, model_io
from .baseline import *  # noqa: F403
from .classify import *  # noqa: F403
from .data import *  # noqa: F403
from .harness import *  # noqa: F403
from .intraclass import *  # noqa: F403
from .kernels import *  # noqa: F403
from .model_io import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (data, kernels, baseline, intraclass, classify, harness, model_io)
    for name in module.__all__
]
