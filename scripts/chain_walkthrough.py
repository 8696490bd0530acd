"""Print the final-chain computation on one model, stage by stage.

Shows the distinct behaviour values per stage, the induced partitions
of states and of state/condition pairs, the kernel matrices, and the
minimised quotient.  Defaults to the six-state worked example.
"""

import argparse
import sys
from pathlib import Path

from ctsmin import parse_model, serialise_model

# the final-chain reference lives with the tests, in tests/reference
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from reference.chain import (
    chain_init,
    chain_step,
    kernel_matrix,
    minimise_chain,
    pseudo_factorise,
    quotient_to_cts,
)
from reference.coalgebra import coalgebra_encode

DEFAULT = Path(__file__).resolve().parents[1] / "fixtures" / "EX1"


def show_matrix(m) -> None:
    for (x, y), conds in sorted(m.table().items()):
        if conds and x <= y:
            print(f"    R({x},{y}) = {{{', '.join(sorted(conds))}}}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("file", nargs="?", default=str(DEFAULT))
    parser.add_argument("--close", action="store_true")
    args = parser.parse_args(argv)

    # UTF-8 whatever the locale, a leading byte-order mark ignored, as
    # the command line tool reads model files
    text = Path(args.file).read_text(encoding="utf-8-sig")
    model = parse_model(text, close=args.close)
    c = coalgebra_encode(model)

    d = chain_init(c)
    stage = 0
    seen = None
    while True:
        partition, _, _ = pseudo_factorise(d)
        print(f"stage {stage}: {len(partition)} behaviour classes")
        values = sorted(
            {d.value(x, phi).pretty() for x in c.states for phi in c.conditions.elements}
        )
        for text in values:
            print(f"    {text}")
        show_matrix(kernel_matrix(d))
        if partition == seen:
            break
        seen = partition
        d = chain_step(c, d)
        stage += 1

    result = minimise_chain(c)
    print(
        f"stabilised at stage {result.stage},"
        f" confirmed at stage {result.confirmed_at}"
    )
    print(f"quotient states: {', '.join(result.z_poset.elements)}")
    print()
    sys.stdout.write(serialise_model(quotient_to_cts(result, model.conditions)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
