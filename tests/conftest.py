"""Hypothesis profiles for the test suite.

`ci` prints a reproduction blob with every failing example, so a failure
seen only in CI can be replayed locally with @reproduce_failure.  Select
it with `pytest --hypothesis-profile=ci`; it changes no example counts
or deadlines.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
