"""The core has one build: the pure-python source."""

# ``bench/run.py`` (the run header's ``backend=``) is the only caller, and
# ``bench/`` is editable only by a ``benchmark`` PR: ROADMAP item 1 (a)
# drops that import, and then this file goes.


def backend_info() -> dict[str, str]:
    return {"backend": "pure-python"}
