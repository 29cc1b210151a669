"""The small blocks at which the scorecard runs `vaguelab all`: a run takes
a fraction of a second in-process, and every check still runs."""

SIZES = {
    "build": {"J": 1, "K": 2},
    "vaguelet": {"j_max": 3, "synthesis_J": 1, "synthesis_K": 4},
    "riesz": {"J": 1, "K": 2, "refinement_levels": 1},
    "simulate": {"J_detail": 2, "K": 8},
}
