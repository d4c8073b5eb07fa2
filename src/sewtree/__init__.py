"""Tree-based evaluation of step-by-step garment assembly instructions."""

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    bump_self_attach,
    compare_piece_labels,
    format_node_label,
    merge_labels,
    parse_node_label,
    parse_piece_label,
)
from .tree import (
    AssemblyNode,
    DepthOneSubtree,
    Forest,
    TreeError,
    canonical_serialize,
    depth_one_subtrees,
    glue_subtrees,
    parse_serialized,
    validate_forest,
    validate_tree,
)
from .grammar import (
    CapExceededError,
    GoldGrammar,
    GrammarError,
    GrammarRule,
    check_grammar,
    count_derivations,
    enumerate_gold_trees,
    parse_grammar,
    validate_grammar,
)
from .pipeline import (
    BuildReport,
    InstructionDoc,
    PatternSpec,
    StepExtraction,
    build_forest,
    extract_document,
    extract_pieces_rule_based,
    linearize_gold_tree,
    resolve_components,
)
from .metrics import (
    MetricConfig,
    ScoreBreakdown,
    bleu,
    grammar_score,
    pearson,
    rouge_l,
    subtree_f1,
    tokenize,
    tree_score,
)

__version__ = "0.1.0"
