#!/usr/bin/env python3
"""The probability matrix and the collapsed multigraph.

One matrix answers "where does the walker end up from *every* initial basis
state at once": square the magnitudes of the evolution operator and sum its
block rows.  Column i*2^n + j holds the node distribution reached from
|coin i> (x) |node j>.  The same data, read as a graph, is the collapsed
multigraph: one weighted arc per (coin, source, destination).
"""

import os
import tempfile

import numpy as np

from walkcomplement import PerturbedCoin, ShiftModel, evolution_operator, hadamard_coin, shift_operator
from walkcomplement.probability import (
    collapse_multigraph,
    multigraph_to_dot,
    probability_matrix,
    save_probability_matrix,
)

np.set_printoptions(precision=4, suppress=True)

shift = shift_operator(2, ShiftModel.CNOT)


def complement_operator(target):
    coin = PerturbedCoin(hadamard_coin(2), np.eye(4), target)
    return evolution_operator(shift, coin, with_init_layer=True)


# --- probability matrices for every target ---------------------------------
# Within coin block i, the suppressed row is target XOR i: the walk relabels
# the marked node per coin value.
for target in range(4):
    mp = probability_matrix(complement_operator(target), steps=1)
    print(f"target {target}: 16 * M_P =")
    print((mp * 16).round().astype(int))
    print()

# --- exports ----------------------------------------------------------------
mp = probability_matrix(complement_operator(1), steps=1)
mp_path = os.path.join(tempfile.gettempdir(), "walk_mp.csv")
save_probability_matrix(mp, mp_path)
print(f"wrote {mp_path} and {mp_path}.json (column-block names)")

graph = collapse_multigraph(complement_operator(1), steps=1)
dot = multigraph_to_dot(graph)
dot_path = os.path.join(tempfile.gettempdir(), "walk_collapsed.dot")
with open(dot_path, "w") as fh:
    fh.write(dot)
print(f"wrote {dot_path} with {len(graph.arcs)} arcs")
print()
print("arcs into node 1 for coin block 0 (the suppressed ones):")
for arc in graph.arcs:
    if arc.coin == 0 and arc.dst == 1:
        print(f"  {arc.src} -> {arc.dst}  weight {arc.weight:.6g}")

# --- multi-step walks --------------------------------------------------------
print()
print("column sums of M_P stay 1 after several steps (each column is a")
print("distribution):")
for steps in (1, 2, 5):
    mp = probability_matrix(complement_operator(1), steps=steps)
    print(f"  steps={steps}: max |column sum - 1| = {abs(mp.sum(axis=0) - 1).max():.2e}")
