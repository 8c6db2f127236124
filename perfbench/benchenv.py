"""Single-threaded BLAS and a fixed hash seed for every benchmark process.

Both must be in place before the interpreter and numpy start, so a script
that finds them missing re-executes itself once with them set.
"""

import os
import sys

ENV = {"PYTHONHASHSEED": "0", "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def pin(script: str) -> None:
    if any(os.environ.get(k) != v for k, v in ENV.items()):
        os.environ.update(ENV)
        os.execv(sys.executable, [sys.executable, os.path.abspath(script)] + sys.argv[1:])
