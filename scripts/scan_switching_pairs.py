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

    python3 scripts/scan_switching_pairs.py
"""

import itertools
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from lsqflow import laplacian, make_graph, spectrum, support_report

N = 5
FULL = frozenset(range(1, N + 1))


def supports_of(graph):
    """The set of eigenvector supports of a graph with a simple Laplacian
    spectrum; None when an eigenvalue repeats (the supports of its
    eigenspace depend on the basis)."""
    report = support_report(spectrum(laplacian(graph)))
    return set(report.supports) if report.simple_spectrum else None


def main() -> int:
    all_edges = list(itertools.combinations(range(1, N + 1), 2))
    a_hits = []
    b_hits = []
    for edges in itertools.combinations(all_edges, 4):
        g = make_graph(N, edges)
        supports = supports_of(g)
        if supports == {frozenset({1, 2}), FULL}:
            a_hits.append(g)
        if supports == {frozenset({1, 3}), FULL}:
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
