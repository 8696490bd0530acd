"""The paper's constructions, kept as independent references that the
tests hold the runtime against: the naive and lattice-fixpoint
constructions of conditional bisimilarity with the transfer and
congruence checks (``bisim``); the final chain of the lattice monad with
its minimisation, kernel matrices, plain-dict report and poset
coequaliser (``chain``); the upgrade coalgebra as a table with its
version-filter laws and the uncompressed pair graph read off it, which
full re-signing refines (``coalgebra``); downsets, downset frames and
lattices given by their order table (``lattice``); monotone maps and the
behaviour functor's action on maps (``maps``); a system's edges by name
(``models``); the lattice monad with its reader translation
(``monad``); and order queries by name with the
fixpoint closure that the runtime's one-pass closure is held against
(``order``).  These modules import the
runtime package ``ctsmin``; it never imports them, and it does not ship
them.
"""
