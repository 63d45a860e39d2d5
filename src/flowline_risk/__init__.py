"""Flowline spill-risk analysis.

Library for merging heterogeneous flowline datasets spatially, attributing
spills to lines, turning merged records into a design matrix, and running
supervised and unsupervised risk models with oracle-checked numerics. The
`flowline-risk` command drives the same stages end to end.

Importing the package loads no submodule. `flowline_risk.<name>` imports
the submodule on first access (PEP 562), so a process that runs one stage
loads only the modules that stage uses.
"""

__version__ = "0.1.0"

__all__ = [
    "config",
    "crs",
    "evaluation",
    "features",
    "figures",
    "geometry",
    "ingest",
    "matcher",
    "ml",
    "modeling",
    "numerics",
    "pipeline",
    "report",
    "spatial_index",
    "synth",
    "synth_settings",
    "__version__",
]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # The import statement's path, which -X importtime lists (it does not
    # list importlib.import_module's); it binds the submodule here.
    __import__(f"{__name__}.{name}")
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
