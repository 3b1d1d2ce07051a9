"""Classical Gaussian bi-signals whose covariance encodes a bipartite
quantum state, reproducing quantum correlations as covariances of
quadratic forms; includes seeded Monte Carlo estimators and turn-key
beam-splitter bunching / anti-bunching experiments.

Each name is imported from the module that defines it, e.g.
``from pcsft.quadratic import form_moments``."""

__version__ = "0.1.0"
