"""Helpers shared by several test files."""
import numpy as np

from screenkit import GeneratorKnobs, Mechanism
from screenkit.solver import _batch_transfers

#: The knob sets of the theorem's acceptance criterion: positive instances
#: in dims 1 and 2, with strictly and weakly costly instruments.
THEOREM_KNOBS = (
    GeneratorKnobs(),
    GeneratorKnobs(n_a=4, n_b=3, n_x=3, n_y=2),
    GeneratorKnobs(n_a=2, n_b=2, n_x=2, n_y=2, strict_costly=False),
    GeneratorKnobs(n_a=4, n_b=3, n_x=2, n_y=2, dim=2),
    GeneratorKnobs(n_a=3, n_b=3, n_x=3, n_y=2, dim=2, strict_costly=False),
)


def ic_mechanism_on_line(line, rng, want_instrument=True):
    """Random feasible mechanism: monotone x, random y, maximal transfers.

    Up to 60 draws of (x, y); with `want_instrument`, draws keeping every
    instrument at baseline are skipped when there is another instrument.
    Returns None when no draw is implementable.
    """
    m = line.n_support
    n_x, n_y = line.productive.n_alloc, line.costly.n_alloc
    opt_x = np.repeat(np.arange(n_x), n_y)
    opt_y = np.tile(np.arange(n_y), n_x)
    U = line.payoffs(opt_x, opt_y, np.zeros(opt_x.size))[0]
    for _ in range(60):
        x = np.sort(rng.integers(0, n_x, m))
        y = rng.integers(0, n_y, m)
        if want_instrument and n_y > 1 and not (y != line.costly.y0_index).any():
            continue
        D, infeasible = _batch_transfers(U, (x * n_y + y)[None, :])
        if infeasible[0]:
            continue
        return Mechanism(tuple(int(i) for i in x), tuple(int(i) for i in y),
                         tuple(float(v) for v in D[0]))
    return None
