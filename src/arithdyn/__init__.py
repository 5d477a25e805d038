"""arithdyn: canonical heights, energy pairings and preperiodic-point
statistics for monic polynomials over Q.

Layers: exact rational/place arithmetic (rationals), polynomial families and
genericity (polynomials), archimedean and non-archimedean local dynamics
(archimedean, nonarchimedean), heights and pairings (heights), preperiodic
point certification (preperiodic), and the statistical survey harness with
its CLI (survey, cli).
"""

from .rationals import (
    LogValue,
    PlaceQ,
    Rat,
    count_rationals_upto,
    factorize,
    weil_height,
)
from .polynomials import (
    LocalProfile,
    MonicPoly,
    PairProfile,
    SliceSpec,
    classify_places,
    height,
    is_ordinary,
    local_profile,
    sample,
    sample_rational,
)
from .archimedean import (
    ArchPairing,
    EquilibriumSample,
    HolderConstants,
    arch_pairing,
    equilibrium_sample,
    green_arch,
    green_arch_many,
    holder_constants,
    moment,
)
from .nonarchimedean import (
    BerkSetDescriptor,
    NewtonPolygon,
    StrataHypothesisError,
    StrataMeasure,
    capacity_union,
    julia_shells,
    mass_outside_unit,
    newton_polygon,
    shells_certify_disjoint,
    strata,
    strata_pullback_simulate,
)
from .heights import (
    AlgebraicPoint,
    AlgHeight,
    BoundReport,
    CanonicalHeight,
    PairingReport,
    PlaceEntry,
    canonical_height,
    canonical_height_alg,
    global_pairing,
    pairing_bounds,
    sandwich_check,
)
from .preperiodic import (
    CertifiedPoint,
    PrepCertificate,
    disjoint_certificate,
    is_rational_preperiodic,
    prep_intersect,
    rational_prep,
)
from .survey import (
    ALPHA,
    AdelicSet,
    OrdinaryResult,
    PrepSurveyResult,
    SurveyConfig,
    build_upper_adelic_set,
    classify_case,
    constants,
    search_adelic_c,
    survey_average_prep,
    survey_ordinary,
    survey_ordinary_ladder,
)

__version__ = "0.1.0"
