"""Reference worker: runs functions of reference.py for run.py in a process
of its own, so that sympy and scipy loaded by the checks never count in the
benchmark process's memory.

    python3 benchmark/refworker.py

Reads pickled (function, args) pairs from stdin until end of input and
writes one pickled ("ok", result) or ("error", text) for each to stdout.
"""

import os
import pickle
import sys
import traceback

import reference  # noqa: F401  (the functions unpickled below live here)

if __name__ == "__main__":
    inp = sys.stdin.buffer
    # Replies go to the original stdout; anything printed goes to stderr.
    out = os.fdopen(os.dup(sys.stdout.fileno()), "wb")
    sys.stdout = sys.stderr
    while True:
        try:
            fn, args = pickle.load(inp)
        except EOFError:
            break
        try:
            reply = ("ok", fn(*args))
        except Exception:
            reply = ("error", traceback.format_exc())
        pickle.dump(reply, out)
        out.flush()
