"""Pytest setup shared by tests/ and perfbench/.

pyproject.toml puts src/ on the test process's sys.path; the same path
goes into PYTHONPATH here, so the subprocesses that tests start
(``python -m subrank.cli ...``) import the source tree too.
"""

import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
