"""Test-session setup shared by every test module."""
import sys

# A failing hypothesis test makes hypothesis's pytest plugin import its
# optional patch writer, which imports libcst where that is installed; libcst
# imports the deprecated mypy_extensions.TypedDict, so under
# -W error::DeprecationWarning the report ends in a pytest INTERNALERROR
# instead of the falsifying example. A None entry makes that import raise
# ImportError, which the plugin catches and then skips the patch.
sys.modules["hypothesis.extra._patching"] = None
