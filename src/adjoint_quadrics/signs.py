"""Structure constants N_{alpha,beta} of the simply-laced Chevalley basis.

The table is built from a bimultiplicative form B on the root lattice
(B(a_i, a_i) = 1, B(a_i, a_j) = <a_i, a_j> for i < j, and 0 for i > j),
twisted by the positivity sign eta(alpha) = +-1 of each argument and of
the sum:

    N_{alpha,beta} = (-1)^B(alpha,beta) * eta(alpha) eta(beta) eta(alpha+beta)

whenever alpha + beta is a root, and 0 otherwise.  The plain cocycle
(-1)^B alone satisfies antisymmetry but returns the wrong sign under
simultaneous negation of both arguments; the eta twist repairs that
(three factors each flip sign, so the product flips).  The resulting
table is not trusted: the classical identities (antisymmetry, negation,
the triangle rule for alpha+beta+gamma = 0, the orthogonal-quadruple
product rule, and the Jacobi cocycle) are all checked by the test suite,
exhaustively on the small systems.

The table is dense over ordered root pairs and precomputed up front;
equation generation performs millions of lookups, so lookups must be O(1).
"""

from __future__ import annotations

import csv

import numpy as np

from .root_system import Root, RootSystem, freeze


class SignTable:
    """Dense table of structure constants for one root system.

    ``table[i, j]`` is N_{root_i, root_j}, int8, read-only from construction
    (a write raises ValueError), so a table is immutable and safe to share
    across threads.  Use :func:`build_sign_table` to construct one.
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        n = rs.n_roots
        l = rs.rank

        b0 = np.zeros((l, l), dtype=np.int64)
        for i in range(l):
            b0[i, i] = 1
            for j in range(i + 1, l):
                b0[i, j] = rs.cartan[i, j]
        coeffs = rs.coeffs
        parity = (coeffs @ b0 @ coeffs.T) % 2
        eps = 1 - 2 * parity
        eta = np.where((coeffs >= 0).all(axis=1), 1, -1).astype(np.int64)

        table = np.zeros((n, n), dtype=np.int8)
        ii, jj = np.nonzero(rs.gram == -1)
        ss = rs.sums[ii, jj]
        table[ii, jj] = eps[ii, jj] * eta[ii] * eta[jj] * eta[ss]
        freeze(table)
        self.table = table

    def structure_constant(self, alpha: Root, beta: Root) -> int:
        """N_{alpha,beta}, in {-1, 0, 1}; zero iff alpha + beta is not a root."""
        return int(self.table[self.rs.root_index(alpha), self.rs.root_index(beta)])

    def write_csv(self, fileobj) -> None:
        """Dump rows (alpha coeffs..., beta coeffs..., N) for external checks.

        Only pairs with nonzero N are emitted.
        """
        writer = csv.writer(fileobj)
        ii, jj = np.nonzero(self.table)
        for i, j in zip(ii.tolist(), jj.tolist()):
            writer.writerow(
                list(self.rs.roots[i]) + list(self.rs.roots[j]) + [int(self.table[i, j])]
            )


def build_sign_table(rs: RootSystem) -> SignTable:
    return SignTable(rs)


def structure_constant(table: SignTable, alpha: Root, beta: Root) -> int:
    return table.structure_constant(alpha, beta)
