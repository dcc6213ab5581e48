"""Hypothesis profiles shared by the test suite.

``mutants``: what ``tools/mutants.py`` selects with ``--hypothesis-profile``.
A mutant is killed by the first failing example, so the profile skips the
shrink phase (and explain, which reports on a shrunk example): shrinking a
failure only makes it smaller, and took most of a mutant's run time.  The
default profile, which Tier-1 runs, is unchanged.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutants", phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
