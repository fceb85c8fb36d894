"""One small document of each kind, as the command line writes it.

Shared by the serialization tests and the verifier fuzz test.  Each text is
produced once per test process; callers parse their own copy.
"""

import contextlib
import functools
import io

from pgroupcert.cli import main

#: A command line that writes a document of each kind to stdout.
KIND_COMMANDS = {
    "construction": "certify --n 2 --r 1 --p 7",
    "group": "group --n 1 --p 3 --mode brute",
    "olshanskii": "olshanskii --n 2 --r 2 --p 3 --seed 1",
    "lambda_table": "lambda-table --max-n 3 --max-r 3 --epsilon 3/5",
    "prime": "find-prime --n 2 --h 7",
}


@functools.lru_cache(maxsize=None)
def document_text(kind: str) -> str:
    """The text KIND_COMMANDS[kind] writes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(KIND_COMMANDS[kind].split()) == 0
    return out.getvalue()
