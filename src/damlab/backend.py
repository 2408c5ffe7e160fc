"""The kernel module behind every exact pointer grid.

``kernels`` is the numpy Pade-13 batch in ``_kernels_py``. Callers reach
``trace_kernels`` through this module attribute, so a profiler can wrap it
in one place.
"""

from . import _kernels_py as kernels

__all__ = ["kernels", "KERNEL_BACKEND"]

KERNEL_BACKEND = "python"
