"""The harness of the CLI error-contract property tests: one ``dispatch``
run with its stdout, stderr and warnings captured."""

import contextlib
import io
import warnings

from oudiff.cli import dispatch


def run_cli(argv):
    """(exit code, stdout, stderr lines); a warning counts as a stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = dispatch(argv)
    lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
    return code, out.getvalue(), lines
