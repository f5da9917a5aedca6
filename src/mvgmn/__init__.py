"""Multi-view graph Mamba network over a minimal autodiff substrate.

Subpackages: ``tensor`` (tape autodiff), ``fusion`` (modality fusion),
``scan`` (four-direction selective scans), ``graph`` (rule/KNN graph
convolution), ``model`` (aggregator ladder and head), ``data`` (feature files
and synthetic datasets), ``train`` (SGD with plateau schedule), ``bench``
(linear-vs-quadratic scaling), ``cli`` (command line).
"""

__version__ = "0.7.0"
