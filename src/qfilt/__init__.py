"""Symbolic filters of ideal subsheaves on desk-scale schemes.

The package classifies the subcategories of quasi-coherent sheaves cut out
by local filters: prelocalizing always, localizing when product-closed,
closed when principal, bilocalizing when the least member is idempotent.
Everything is certified against a brute-force oracle over finite rings.
"""

from .classify import (
    ClassificationReport,
    biloc_to_clopen,
    classify,
    closed_to_subscheme,
    filter_from_modules,
    localizing_to_specclosed,
    member,
    points_to_localizing,
    specclosed_to_localizing,
)
from .config import INF
from .errors import (
    GluingError,
    LatticeTooLargeError,
    ParseError,
    QfiltError,
    RingMismatchError,
    UnsupportedFamilyError,
)
from .fields import PrimeField, SymbolicAlgClosed
from .filters import (
    ALL_POWERS,
    EVERYTHING,
    FULL_ONLY,
    FilterBase,
    LocalFilter,
    StalkFilter,
    cofinite_family,
    contains,
    filter_base,
    generate,
    glue_filters,
    improper_filter,
    is_local,
    is_prime,
    is_principal,
    is_product_closed,
    join,
    localize,
    meet,
    presented,
    principal_filter,
    product,
    restrict,
    trivial_filter,
    up_to,
)
from .ideals import QuotientRing
from .poly import poly_from_literal, poly_from_str
from .schemes import (
    AffineLine,
    AffineQuotient,
    DisjointUnion,
    IdealSheaf,
    ProjLine,
    Scheme,
    closed_subscheme,
    glue_ideals,
    restrict_sheaf,
    sheaf,
    sheaf_contains,
    sheaf_from_poly,
    sheaf_intersect,
    sheaf_is_idempotent,
    sheaf_product,
    sheaf_sum,
    unit_sheaf,
    zero_sheaf,
)
from .spectrum import (
    ComponentSet,
    SpecClosedSet,
    SpecPoint,
    TorsionSheafData,
    closed_point,
    generic_point,
    inf_point,
    module_data,
    spec,
    supp_ass,
)

__version__ = "0.1.0"
