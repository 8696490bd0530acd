"""The theory layer: the lattice monad and its reader translation
(``monad``), downsets, downset frames, lattices given by their order
table and their import as downset frames (``lattice``), the upgrade
coalgebra as a table with its version-filter laws (``coalgebra``), and
monotone maps with the behaviour functor's action on maps (``maps``).

The tests hold these against the paper's laws.  No command uses them,
and nothing in the runtime package imports them.
"""
