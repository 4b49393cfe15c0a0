"""Golden proof vectors (see ``regenerate.py``)."""
