"""A leftover no-op for the ``serve-mlp`` benchmark's segment-leak check.

The pool sends batch payloads over its pipes and creates no
shared-memory segment, but ``perfbench``'s ``serve-mlp`` workload still
calls ``shared_segment_stats().check()`` after closing its pool. This
stub stays only until ROADMAP item 8's benchmark-change PR drops that
call.
"""


class _NoSegments:
    def check(self) -> list[str]:
        """Leak report: always empty, nothing creates segments."""
        return []


def shared_segment_stats() -> _NoSegments:
    """Segment accounting that reports no segment, because none exist."""
    return _NoSegments()
