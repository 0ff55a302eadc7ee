"""Configs that must not run: one table for every harness that rejects them.

Each entry overrides some fields of BASE, gives a regular expression that
the ConfigError of ``RunConfig.validate`` must match, and notes what the
config does, or used to do, when run.  The config tests, the CLI tests and
CI check every entry, so a new reject rule is one more entry here.  Standard
library only: ``python tests/unrunnable.py DIR`` writes each entry to DIR as
the config file ``<name>.txt``, headed by its note.
"""

import sys
from pathlib import Path

INF, NAN = float("inf"), float("nan")

#: A config that validates; every entry overrides some of its fields.
BASE = {"eps": 1e-3, "kappa": 1.0, "r_max": 40.0, "n_cells": 400, "t_end": 5.0}

#: name -> (overrides, fragment of the error message, note)
ENTRIES = {
    "eps-above-one": ({"eps": 1.5}, "eps", "outside the small-data range [0, 1)"),
    "eps-negative": ({"eps": -0.1}, "eps", "outside the small-data range [0, 1)"),
    "kappa-negative": ({"kappa": -1.0}, "kappa", "backward heat equation"),
    "kappa-inf": ({"kappa": INF}, "kappa", "infinite conductivity"),
    "r_max-zero": ({"r_max": 0.0}, "r_max", "an empty domain"),
    "n_cells-too-few": ({"n_cells": 4}, "n_cells", "fewer than 8 cells"),
    "t_end-zero": ({"t_end": 0.0}, "t_end", "nothing to run"),
    "cfl-zero": ({"cfl": 0.0}, "cfl", "dt = 0"),
    "cfl-above-one": ({"cfl": 1.5}, "cfl", "past the CFL limit"),
    "output_every-zero": ({"output_every": 0}, "output_every", "no record cadence"),
    "init_family-unknown": (
        {"init_family": "square-wave"}, "init_family", "no such initial data",
    ),
    "diffusion_scheme-unknown": (
        {"diffusion_scheme": "forward-euler"}, "diffusion_scheme", "no such scheme",
    ),
    "filter_coeff-negative": ({"filter_coeff": -0.01}, "filter_coeff", "antidiffusion"),
    "diag_max_k-too-high": ({"diag_max_k": 9}, "diag_max_k", "above order 6"),
    "filter_coeff-nan": (
        {"filter_coeff": NAN}, "filter_coeff", "nan > 0 is False: the filter was off",
    ),
    "filter_coeff-inf": ({"filter_coeff": INF}, "filter_coeff", "an infinite filter"),
    "filter_coeff-unstable": (
        {"filter_coeff": 0.5}, "filter_coeff", "above 1/16: breached within ten steps",
    ),
    "filter_coeff-just-unstable": (
        {"filter_coeff": 0.0625001}, "filter_coeff", "just above the 1/16 bound",
    ),
    "r_max-inf": ({"r_max": INF}, "r_max", "escaped from build_grid as a traceback"),
    "r_max-nan": ({"r_max": NAN}, "r_max", "a NaN mesh"),
    "t_end-nan": ({"t_end": NAN}, "t_end", "ran zero steps and reported time-complete"),
    "overflow": (
        {"r_max": 1e104, "n_cells": 16, "kappa": 0.0}, "outer cell overflows",
        "the outer cell's w is NaN: breached with NaN records",
    ),
    "overflow-kappa": (
        {"r_max": 1e104, "n_cells": 16}, "outer cell overflows",
        "the outer cell's w is NaN: raised in the conduction solve",
    ),
    "overflow-w-dr": (
        {"r_max": 1e80, "n_cells": 16}, "outer cell overflows",
        "w * dr overflowed, and conduction was silently zero",
    ),
    "underflow": (
        {"r_max": 1e-120, "n_cells": 16, "t_end": 1e-121, "kappa": 0.0,
         "init_family": "zero"},
        "innermost cell underflows",
        "the innermost w is 0: zero data breached after one step",
    ),
    "tiny": (
        {"r_max": 1e-100, "n_cells": 16, "t_end": 1e-250, "init_family": "zero"},
        r"kappa / \(w \* dr\) of the innermost cell overflows",
        "the innermost w * dr is 0: the first conduction half step raised (exit 1)",
    ),
    "tiny-kappa-1000": (
        {"r_max": 2.08e-76, "n_cells": 16, "t_end": 1e-250, "kappa": 1000.0,
         "init_family": "zero"},
        r"kappa / \(w \* dr\) of the innermost cell overflows",
        "w * dr is normal, kappa / (w * dr) inf: the first half step raised",
    ),
    "dominance-kappa": (
        {"r_max": 12.0, "n_cells": 120, "t_end": 0.01, "kappa": 1e16},
        "diagonal dominance", "failed the first conduction half step (exit 1)",
    ),
    "dominance": (
        {"eps": 0.5, "kappa": 2.26e15, "r_max": 16.0, "n_cells": 16, "t_end": 1.0,
         "init_family": "zero"},
        "diagonal dominance",
        "validated with dt from the speed bound, then failed its first step",
    ),
    "zero-dt": (
        {"eps": 0.0, "kappa": 0.0, "r_max": 1e-90, "n_cells": 8, "t_end": 1e-300,
         "init_family": "zero", "cfl": 1e-250},
        r"= inf steps, more than 2\*\*40",
        "dt underflowed to 0: exit 1, leaving a partial timeseries",
    ),
    "stall": (
        {"eps": 0.0, "kappa": 0.0, "r_max": 1.0, "n_cells": 8, "t_end": 0.1,
         "init_family": "zero", "cfl": 1e-17},
        r"= 1.13e\+17 steps, more than 2\*\*40",
        "dt = 8.8e-19: at t = 0.05, t + dt == t and the run never ended",
    ),
    "contact": (
        {"r_max": 10.0, "n_cells": 100, "t_end": 1000.0}, "boundary-no-contact",
        "waves from the origin cross r_max long before t_end",
    ),
}


def config_text(name: str) -> str:
    """The entry as a config file: its note, then one key = value per line."""
    overrides, _, note = ENTRIES[name]
    lines = [f"# {name}: {note}"]
    lines += [f"{key} = {value}" for key, value in {**BASE, **overrides}.items()]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} DIR")
    out = Path(sys.argv[1])
    out.mkdir(parents=True, exist_ok=True)
    for name in ENTRIES:
        (out / f"{name}.txt").write_text(config_text(name))
