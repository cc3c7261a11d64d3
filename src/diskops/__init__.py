"""Numerical toolkit for weighted Hilbert spaces of analytic functions
on the unit disk: truncated power-series arithmetic, reproducing kernels,
multiplication/composition operator compressions, m-isometry defects,
Blaschke-product expansions, and interpolation positivity tests."""
