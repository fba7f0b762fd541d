"""Exact arithmetic for skew PBW extensions over finite rings."""

from . import errors
from .extension import ExtensionPresentation, SkewPolynomial, make_extension, verify_presentation
from .graded import Grading, GradedProfile, attach_grading, homogeneous_components, is_connected, is_graded_extension, trivial_grading
from .harness import SearchBudget, TheoremCheck, TheoremReport, counterexample_search, run_check
from .maps import (
    RingMap,
    SigmaSystem,
    identity_map,
    invariance,
    is_delta_compatible,
    is_sigma_compatible,
    is_sigma_rigid,
    is_sigma_rigid_subset,
    is_weak_delta_compatible,
    is_weak_sigma_compatible,
    make_endomorphism,
    make_sigma_derivation,
    zero_derivation,
)
from .probes import (
    BoundedScan,
    bounded_NI_check,
    bounded_skew_armendariz,
    enumerate_bounded_polys,
    nilpotency_probe,
    quasi_regularity_witness,
)
from .rings import (
    FiniteRing,
    Ideal,
    RingElement,
    RingProfile,
    classify_ring,
    ideal_power_index,
    jacobson_radical,
    levitzki_radical,
    make_ring,
    nilpotent_set,
    prime_radical,
    upper_nilradical,
)

__version__ = "0.1.0"
