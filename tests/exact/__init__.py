"""The exactness harness (``harness.py``) and the guarantee's oracle (``oracle.py``)."""
