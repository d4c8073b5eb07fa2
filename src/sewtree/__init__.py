"""Tree-based evaluation of step-by-step garment assembly instructions."""

__version__ = "0.1.0"
