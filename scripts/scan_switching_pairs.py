"""Enumerate 5-node switching graph pairs with the pinned spectral fingerprint.

The shipped pair fixture wants two connected 4-edge graphs on 5 nodes that
differ in a single edge, both with simple Laplacian spectra, where graph A
has exactly one sparse eigenvector supported on {1, 2} and graph B one
supported on {1, 3}, all other eigenvectors full-support. This script
searches the whole space and prints every pair that qualifies, which is how
fixtures/pent_graph_pair.json was produced (the hit whose swapped edge moves
node 1's attachment between the two high-degree nodes). Connectivity needs
no test of its own: a disconnected graph repeats the eigenvalue 0, so its
spectrum is not simple and the fingerprint rejects it.
"""

import itertools
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lsqflow import FingerprintMismatchError, check_support_fingerprint, make_graph

N = 5
FULL = tuple(range(1, N + 1))


def fingerprint_ok(graph, sparse_support) -> bool:
    try:
        check_support_fingerprint(graph, [sparse_support, FULL])
    except FingerprintMismatchError:
        return False
    return True


def main() -> int:
    all_edges = list(itertools.combinations(range(1, N + 1), 2))
    a_hits = []
    b_hits = []
    for edges in itertools.combinations(all_edges, 4):
        g = make_graph(N, edges)
        if fingerprint_ok(g, (1, 2)):
            a_hits.append(g)
        if fingerprint_ok(g, (1, 3)):
            b_hits.append(g)
    print(f"{len(a_hits)} graphs with sparse support {{1,2}}, "
          f"{len(b_hits)} with {{1,3}}")
    pairs = [(a, b) for a in a_hits for b in b_hits
             if len(a.edges ^ b.edges) == 2]
    for a, b in pairs:
        print(f"A: {sorted(a.edges)}   B: {sorted(b.edges)}")
    print(f"{len(pairs)} single-edge-swap pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
