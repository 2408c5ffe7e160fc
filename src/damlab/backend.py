"""The kernel module behind every exact pointer grid.

``kernels`` is the numpy module ``_kernels_py``: dominant-mode tables by
inverse iteration (``mode_table``, or ``mode_table_blocks`` for a grid
streamed in blocks) and Pade-13 kernels (``trace_kernels``).
Callers reach both through this module attribute, so a profiler can wrap
them in one place.
"""

from . import _kernels_py as kernels

__all__ = ["kernels", "KERNEL_BACKEND"]

KERNEL_BACKEND = "python"
