"""LoRaWAN indoor-propagation toolkit.

Airtime and duty-cycle arithmetic, link-budget quantities, adaptive data
rate, multi-wall path-loss models with environmental covariates, a
least-squares fitter and the data cleaning/evaluation pipeline, all behind
one CLI (``loraprop``).
"""

__version__ = "0.1.0"
