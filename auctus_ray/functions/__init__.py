"""Training-data-pipeline operators: dedup, text analysis, ANN."""
