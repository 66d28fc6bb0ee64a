"""Enumerate, count, and certify isotemporal classes of serial temporal networks."""

from .core import (
    AdjacencyRelation,
    IsotemporalError,
    ParseError,
    Pseudograph,
    TemporalNetwork,
    ValidationError,
    adjacency,
    build_network,
    parse_network,
    serialize_network,
)
from .paths import TemporalPath, edge_sequences, max_temporal_path_length, temporal_paths
from .iso import (
    EdgeIsomorphism,
    EdgePermutationGroup,
    canonical_label_vectors,
    canonical_labeling,
    count_distinct_labelings,
    edge_automorphism_group,
    edge_isomorphisms,
    is_label_isomorphic,
    is_temporal_isomorphic,
    label_isomorphism_witness,
    temporal_isomorphism_witness,
)
from .classes import (
    ClassPartition,
    ComparisonReport,
    LimitExceededError,
    brute_force_classes,
    compare_partitions,
    swap_closure_classes,
    swap_neighbors,
)
from .families import (
    Beachball,
    Cycle,
    Daisy,
    Diaster,
    DiasterSignature,
    FamilySpec,
    InvalidFamilyError,
    NoSwapScriptError,
    Star,
    Stem,
    SwapScript,
    SwapStep,
    TransferReport,
    apply_swap_script,
    binary_swap_sequence,
    check_transfer_conditions,
    diaster_signature,
    diaster_swap_permutation,
    enumerate_family_specs,
    generate,
    parse_family_spec,
    spec_string,
)
from .formulas import CountResult, diaster_formula, family_count, lattice_count, stem_formula, trivial_family_count

__version__ = "0.1.0"
