"""Tree-based evaluation of step-by-step garment assembly instructions."""

from .labels import (
    LabelError,
    NodeLabel,
    PieceLabel,
    bump_self_attach,
    format_node_label,
    merge_labels,
    parse_node_label,
    parse_piece_label,
)
from .tree import (
    AssemblyNode,
    DepthOneSubtree,
    TreeError,
    canonical_serialize,
    depth_one_subtrees,
    parse_serialized,
    validate_tree,
)
from .grammar import (
    CapExceededError,
    GoldGrammar,
    GrammarError,
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
