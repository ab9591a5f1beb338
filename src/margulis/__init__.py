"""Countable Markov shifts, Gurevich entropy, harmonic functions, and
conformal (Margulis) leaf measures, with a verified hyperbolic
toral-automorphism model."""

from .graphs import (
    ShiftGraph,
    StructuralViolation,
    ball,
    build_graph,
    is_admissible,
    load_graph,
    validate_graph,
)
from .counting import CountTable, WeightedSumTrace, count_periodic, count_words, weighted_loop_sum
from .thermo import (
    RECURRENT,
    TRANSIENT_EVIDENCE,
    UNDECIDED,
    EntropyEstimate,
    HarmonicFunction,
    NumericalFailure,
    RecurrenceVerdict,
    check_harmonic,
    classify_recurrence,
    gurevich_entropy,
    harmonic_cyr,
    harmonic_finite,
    harmonic_sarig,
    ruelle_apply,
)
from .measures import (
    ConformalFamily,
    conformality_check,
    cylinder_measure,
    global_leaf_measure,
    make_family,
    support_check,
    symbolic_holonomy_check,
)
from .torus import (
    Itinerary,
    MarkovPartition,
    Rectangle,
    TorusAutomorphism,
    UnstableArc,
    builtin_partition,
    code_point,
    conformality_on_leaves,
    cylinder_image_arc,
    decode,
    fiber_bound_check,
    full_u_side_arc,
    holonomy_invariance_check,
    intersection_count,
    inverse_partition,
    leaf_arc_measure,
    parse_partition,
    partition_to_json,
    make_automorphism,
    make_partition,
    margulis_coordinates,
    memberships,
    partition_family,
    stable_holonomy,
    validate_partition,
)
from .fixtures import FIXTURES, get_fixture
from .report import Report
from .suite import SuiteConfig, run_suite

__version__ = "0.1.0"
