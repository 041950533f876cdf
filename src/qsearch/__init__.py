"""Compiler, resource estimator, and exact simulator for bit-field table
search by amplitude amplification over a unary-indexed data loader."""
