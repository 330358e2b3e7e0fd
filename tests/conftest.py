import sys
from pathlib import Path

# allow running the suite from a fresh checkout without installing
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from hypothesis import settings

settings.register_profile("numeric", deadline=None, max_examples=50)
# the CI contract run: tests/test_cli_contract.py at ten times the examples
settings.register_profile("contract-deep", parent=settings.get_profile("numeric"),
                          max_examples=500, derandomize=True)
settings.load_profile("numeric")
