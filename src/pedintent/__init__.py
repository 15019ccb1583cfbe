"""Multi-modal pedestrian crossing-intention prediction at desk scale.

Allocator policy: on glibc, importing the package makes two `mallopt`
calls. `M_MMAP_THRESHOLD` is set to 32 MiB, the ceiling glibc's own
dynamic threshold reaches on 64-bit, so arrays up to that size come from
the heap rather than from a fresh `mmap`; `M_TRIM_THRESHOLD` is set to -1,
"never trim", so freed heap is reused rather than handed back to the
kernel. Without them, every score_clips pass of 27 windows (extraction
and `predict_scores`) faulted in 2,700-3,700 pages it had just given back,
and every train_ft call 14,000-20,000; with them, a repeated pass or call
faults about none. Both go in together: any `mallopt` call turns
off glibc's dynamic threshold, and trimming off alone faulted more, not
less. The cost: a process holds its peak heap until it exits, while the
traced peak of its arrays is unchanged. Off glibc, or where `mallopt` is
missing or refuses a value, the import changes nothing.
"""

import ctypes
import os

__version__ = "0.1.0"

_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory():
    """Apply the allocator policy above; a no-op off glibc."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ValueError, OSError):  # no confstr name, no libc symbol
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, -1)


_keep_freed_memory()
