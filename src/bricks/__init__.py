"""Exact modelling of objects built from properly joined bricks.

A brick is a parallelepiped; a complex of bricks is properly joined when
every pair is disjoint or meets in a single point, a whole edge of each, or
a whole face of each. The package validates complexes, builds the brick
graph (a corner is a node of degree three or less), refines bricks by exact
midpoint splits, and computes the Euler characteristic and genus of the
exposed boundary surface, all over exact rational arithmetic.
"""

from .complexes import (
    BrickComplex,
    BrickGraph,
    ValidationReport,
    brick_complex,
    brick_graph,
    component_count,
    corners,
    degree_histogram,
    validate,
)
from .constructions import (
    fixture,
    fixture_names,
    random_rectilinear,
    table_buttressed_octahedron,
    table_zz,
    zz_embedded,
    zz_immersed,
)
from .geometry import (
    Brick,
    Contact,
    ContactKind,
    Point3,
    Scalar,
    Vec3,
    brick_from_box,
    classify_contact,
    scalar,
    vec3,
)
from .refinement import (
    Keep,
    Octasect,
    QuarterLengthwise,
    SplitAt,
    apply_schedule,
    octasect,
    quarter_lengthwise,
    split_many,
    standard_zz_schedule,
    two_opposite_covered,
)
from .surface import (
    PieceRow,
    PieceTable,
    SurfaceStats,
    exposed_faces,
    genus_from_chi,
    piece_table_chi,
    surface_stats,
    voxel_chi,
)

__all__ = [
    # complexes
    "BrickComplex", "BrickGraph", "ValidationReport", "brick_complex",
    "brick_graph", "component_count", "corners", "degree_histogram",
    "validate",
    # constructions
    "fixture", "fixture_names", "random_rectilinear",
    "table_buttressed_octahedron", "table_zz", "zz_embedded", "zz_immersed",
    # geometry
    "Brick", "Contact", "ContactKind", "Point3", "Scalar", "Vec3",
    "brick_from_box", "classify_contact", "scalar", "vec3",
    # refinement
    "Keep", "Octasect", "QuarterLengthwise", "SplitAt", "apply_schedule",
    "octasect", "quarter_lengthwise", "split_many", "standard_zz_schedule",
    "two_opposite_covered",
    # surface
    "PieceRow", "PieceTable", "SurfaceStats", "exposed_faces",
    "genus_from_chi", "piece_table_chi", "surface_stats", "voxel_chi",
]
