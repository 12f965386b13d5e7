"""Fully factorial expectation propagation for mini-batch loss minimization.

Costs that sum over examples become Boltzmann factors exp(-beta * batch
loss); EP maintains one unnormalized diagonal-Gaussian message per factor
and refreshes them by local fits.  Four interchangeable fitting schemes are
provided (Laplace, quick Laplace, Gaussian quadrature, and variational
quadrature), together with loss functions, a CSV ingestion pipeline,
looping/streaming EP drivers, offline reference solvers, and an experiment
harness that emits traces and timing tables.

The package root exports only ``__version__``; import from the submodules
(``ffep.engine``, ``ffep.schemes``, ``ffep.ingest`` and so on).
"""

__version__ = "0.1.0"
