"""Top-trumps balancing workbench: deck generation, game simulation and
multi-objective optimization of deck designs, plus the statistical machinery
to compare optimizer performance across runs."""
