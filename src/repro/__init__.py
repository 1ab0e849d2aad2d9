"""repro: a reproduction of "Path Forward Beyond Simulators" (MICRO 2023).

Linear-regression-based GPU execution time prediction for DNN workloads,
with every substrate (model zoo, simulated GPUs, profiler, dataset
tooling, case-study simulators) implemented from scratch in Python.

Typical use::

    from repro import zoo, gpu, dataset, core

    nets = zoo.imagenet_roster("small")
    data = dataset.build_dataset(nets, [gpu.gpu("A100")], batch_sizes=[512])
    train, test = dataset.train_test_split(data)
    model = core.train_model(train, "kw", gpu="A100")
    curve = core.evaluate_model(model, test, nets, gpu="A100")
    print(curve.render("KW model on A100"))

Subpackages load on first access, so importing one part of the package
does not import the others.
"""

import importlib

__version__ = "1.0.0"

__all__ = [
    "core",
    "dataset",
    "gpu",
    "nn",
    "profiler",
    "reporting",
    "scheduling",
    "service",
    "sim",
    "studies",
    "zoo",
    "__version__",
]


def __getattr__(name: str):
    """Import a subpackage on first access (PEP 562).

    ``import repro.service`` then loads the serving stack without the
    studies, profiler and simulators it never uses; ``repro.zoo`` and
    ``from repro import zoo`` still work as before.
    """
    if name in __all__:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
