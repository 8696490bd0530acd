"""Independent routes to the results of the runtime, kept as oracles
for the tests: the naive and lattice-fixpoint constructions of
conditional bisimilarity with the transfer and congruence checks
(``bisim``), and the final chain of the lattice monad with its
minimisation, its kernel matrices, its plain-dict report and the poset
coequaliser (``chain``).  The chain runs on the tabulated upgrade
coalgebra of ``ctsmin.theory.coalgebra``.

These modules import the runtime; nothing in the runtime imports them.
"""
