"""Numerical kernel and verification harness for spacelike-surface geometry
in anti-de Sitter 3-space."""

__version__ = "0.1.0"

from .ads_core import bilinear22
from .embedding import (ConvexityClass, EmbeddingData, Immersion,
                        convexity_class, embedding_data_at, gaussian_curvature,
                        make_immersion, structure_residuals,
                        third_fundamental_form)
from .mess_metrics import SharpData, mess_metric, sharp_frame, verify_left_metric_hyperbolic
from .constructions import (DualData, ExtensionMetric, dual_surface,
                            equidistant_data, extension_curvature, phi_k_fuchsian)
from .fuchsian import (DiscreteOperators, Genus2Mesh, HolonomySet,
                       discrete_operators, genus2_mesh, octagon_generators)
from .rigidity import (b_from_bdot, b_from_mu, jbj_sharp, kernel_dimension,
                       sharp_codazzi_residual, trace_conditions)
from .report import CheckReport, emit_report
