"""Tangency counting and stratification for convex curves in projective space.

The package walks one chain of constructions: parameterized curves and their
osculating flags, the tangency function and its root count for a point,
convexity certification, projection onto osculating hyperplanes, elliptic
hulls, the root filtration of the ambient space with its transport map, and
a sampled model of the discriminant hypersurface for plotting.
"""

from .convexity import (ConvexityReport, check_convex_criterion,
                        check_convex_sampling)
from .curves import (ParamCurve, build_model, curve_from_spec, dual_curve,
                     nonconvex_space_curve, perturbed_circle)
from .errors import (DegeneracyError, GeometryError, OnDiscriminantError,
                     OsculantError, PrecisionError)
from .forms import (BinaryForm, exact_count, factor_binary_form,
                    form_to_point, point_to_form, sturm_count, trig_convex_map)
from .hulls import (EllipticHull, elliptic_hull, elliptic_hull_membership,
                    hull_center)
from .mesh import RuledSample, export, sample_discriminant
from .projection import (ProjectedCurve, project_iterated,
                         project_onto_osculating_hyperplane)
from .projective import (ProjPoint, Subspace, merge_moments, normalize,
                         osculating_hyperplane, osculating_intersection,
                         osculating_subspace, same_subspace)
from .strata import (FiberPoint, StratumData, component_census, realize,
                     rescale_moments, stratum_label, tangency_data, transport)
from .tangency import (RootCount, count_roots, order_of_tangency,
                       tangency_function)

__version__ = "0.1.0"

__all__ = [
    "BinaryForm",
    "ConvexityReport",
    "DegeneracyError",
    "EllipticHull",
    "FiberPoint",
    "GeometryError",
    "OnDiscriminantError",
    "OsculantError",
    "ParamCurve",
    "PrecisionError",
    "ProjPoint",
    "ProjectedCurve",
    "RootCount",
    "RuledSample",
    "StratumData",
    "Subspace",
    "build_model",
    "check_convex_criterion",
    "check_convex_sampling",
    "component_census",
    "count_roots",
    "curve_from_spec",
    "dual_curve",
    "elliptic_hull",
    "elliptic_hull_membership",
    "exact_count",
    "export",
    "factor_binary_form",
    "form_to_point",
    "hull_center",
    "merge_moments",
    "nonconvex_space_curve",
    "normalize",
    "order_of_tangency",
    "osculating_hyperplane",
    "osculating_intersection",
    "osculating_subspace",
    "perturbed_circle",
    "point_to_form",
    "project_iterated",
    "project_onto_osculating_hyperplane",
    "realize",
    "rescale_moments",
    "sample_discriminant",
    "same_subspace",
    "stratum_label",
    "sturm_count",
    "tangency_data",
    "tangency_function",
    "transport",
    "trig_convex_map",
]
