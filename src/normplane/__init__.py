"""normplane: a numerical laboratory for two-dimensional normed planes.

Represents norms on the plane (lp, polar profiles, quadrant mixes, polygons,
arc chains, blends, and built counterexamples), computes the geometry of
their unit spheres (curvature, support functionals, tangent discs and
ellipses, convexity moduli), constructs certified contractive automorphisms
between sphere points, and classifies each norm's semitransitivity grade.
"""

from .curvature import (
    CurvatureProfile,
    curvature_graph,
    curvature_implicit,
    curvature_parametric,
    curvature_polar,
    profile,
    scale_law_check,
)
from .geometry import (
    Disc,
    LinearMap2,
    SpherePoint,
    Vec2,
    dual_gauge,
    gauge,
    operator_norm,
    operator_norms,
    sphere_point,
)
from .models import (
    Arc,
    NormModel,
    dual_model,
    make_arc_chain,
    make_blend,
    make_ellipse,
    make_ellipse_pair,
    make_l2_l1_hybrid,
    make_lp,
    make_polar,
    make_polygon,
    make_quadrant_mix,
    make_spliced_arcs,
)
from .moduli import ModulusCurve, decomposition_check, delta_curve, delta_strong, delta_uc, power2_fit
from .semigroup import (
    ContractionCertificate,
    OrbitReport,
    certify,
    flat_transport,
    inv_norm_lower_bound,
    l1_orbit,
    make_L_ab,
    orbit_map,
    perp,
)
# the full-verdict entry point lives at normplane.classify.classify; the bare
# name is not re-exported so the submodule stays addressable
from .classify import (
    Verdict,
    classify_bst,
    classify_st,
    classify_umst,
    find_flat,
    pilgrim_probe,
    umst_delta_table,
)
from .staircase import (
    BuiltCurve,
    CurvatureFunction,
    build_nobst,
    close_sphere,
    integrate_curve,
    k_staircase,
    nobst_witness,
    staircase_function,
)
from .tangency import (
    Ellipse,
    TangencyReport,
    dual_transfer,
    inner_disc,
    inner_ellipse,
    john_ellipse,
    outer_disc,
    outer_ellipse,
    tangency_report,
    tangent_ellipse,
)

__version__ = "0.1.0"
