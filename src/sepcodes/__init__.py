"""Exact toolkit for separating-dominating identification codes in graphs:
the eight code problems (LD, LTD, OD, OTD, ID, ITD, FD, FTD), extremal
constructions attaining the logarithmic lower bounds, and exhaustive
desk-scale audits of the characterizations."""

from .codes import (
    ALL_KINDS,
    CodeKind,
    Separation,
    is_admissible,
    is_code,
    is_dominating,
    is_separating,
    is_total_dominating,
)
from .errors import BlueprintError, BudgetError, FormatError, GuardError
from .extremal import (
    AuditReport,
    CountReport,
    DisconnectionReport,
    ExtremalBlueprint,
    ExtremalCheck,
    MaterializedExtremal,
    OuterPolicy,
    TightPreset,
    audit_characterization,
    counting,
    eligible_outer_labels,
    extremal_structure_check,
    materialize,
    od_disconnection_case,
    parse_blueprint,
    tight_family_presets,
    verify_extremal,
)
from .graphs import (
    FamilyMembership,
    Graph,
    build_graph,
    canonical_form,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    family_membership,
    graph_classes,
    graph_code,
    graph_from_code,
    induced_subgraph,
    is_isomorphic,
    labeled_graph_count,
    matching_graph,
    members,
    path_graph,
    vset,
)
from .serialize import emit_edge_list, emit_graph6, parse_edge_list, parse_graph6
from .solver import (
    CensusReport,
    RelationReport,
    SolveReport,
    census,
    census_kinds,
    expected_order,
    lower_bound,
    max_order,
    min_code,
    oracle_min_code,
    relation_check,
)

__version__ = "0.1.0"
