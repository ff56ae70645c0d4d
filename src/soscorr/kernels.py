"""The package's compiled passes, one C library loaded through ctypes.

kernels.c holds das_rx, the pass of
:func:`~soscorr.beamform.das_beamform` over a frame's receivers;
trace_rays, the heterogeneous ray trace of one block of
:func:`~soscorr.synthsim.travel_times`; das_rx_avx512 and
trace_rays_avx512, the same passes 8 pixels or rays a step, built for
AVX-512F only on x86-64 and run where avx512() finds it on the host;
and rx_sinc and synth_rx, which form a receive channel of
:func:`~soscorr.synthsim.simulate_frame` from its travel times,
distances and directivities' sines and sum its pulses. The first import
builds it with the host's C compiler into a cached library, once for
all; ctypes releases the GIL around each call, so threads run the
passes in parallel. Each pass gives the same bytes as the NumPy or
SciPy code it stands beside: -ffp-contract=off keeps every product and
sum rounding on its own, with no fused multiply-add, the vector passes
write each as its own intrinsic, and the C code calls no libm function.
The library is built for the baseline of its architecture, not with
-march, so a cached library runs on any host of that architecture; the
vector passes are compiled for AVX-512F and chosen at load, and on
x86-64 synth_rx is built for both, the loader picking one. Where no
compiler is found or the library does not load, one warning is logged,
LIBRARY is None and those modules run their own passes.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import shlex
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

KERNEL_SOURCE = Path(__file__).with_name("kernels.c")
# no -ffast-math, which could reorder the arithmetic and change the
# bits; no -march, which would tie the library to the building host's
# CPU (-ffp-contract=off already forbids fused multiply-add under any)
KERNEL_FLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


def compiler() -> list[str]:
    """The C compiler command: sysconfig's CC where it is found, else cc."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        cc = ["cc"]
    return cc


def load_kernel(cc: list[str] | None = None,
                cache_dir: Path | None = None) -> ctypes.CDLL | None:
    """The library of kernels.c, built with cc into cache_dir, with
    das_rx, trace_rays, rx_sinc, synth_rx and, where avx512() says the
    host has AVX-512F, das_rx_avx512 and trace_rays_avx512 declared; or
    None.

    cc defaults to :func:`compiler`; cache_dir to the module's
    __pycache__, else a directory private to the user in the temp dir
    where that is not writable. The library's name holds the sha256 of
    the source and the command, so a built one is loaded without
    running the compiler. It is built into a temp file and renamed into
    place, so a process never loads a half-written library. A build or
    load that fails logs one warning naming the error and returns None.
    """
    command = [*(compiler() if cc is None else cc), *KERNEL_FLAGS]
    try:
        if cache_dir is None:
            cache_dir = KERNEL_SOURCE.parent / "__pycache__"
            with contextlib.suppress(OSError):
                cache_dir.mkdir(exist_ok=True)
            if not os.access(cache_dir, os.W_OK):
                # in the shared temp dir another user could plant a
                # library under the predictable name, so the cache is a
                # directory private to this user
                cache_dir = Path(tempfile.gettempdir(),
                                 f"soscorr-{os.getuid()}")
                cache_dir.mkdir(mode=0o700, exist_ok=True)
                st = cache_dir.lstat()
                if st.st_uid != os.getuid() or st.st_mode & 0o077:
                    raise OSError(f"{cache_dir} is not private to this user")
        key = hashlib.sha256("\0".join(
            [KERNEL_SOURCE.read_text(), *command]).encode()).hexdigest()
        path = Path(cache_dir) / f"kernels-{key[:16]}.so"
        if not path.exists():
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache_dir)
            os.close(fd)
            try:
                subprocess.run([*command, "-o", tmp, str(KERNEL_SOURCE)],
                               check=True, capture_output=True, text=True)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.CalledProcessError) as err:
        detail = getattr(err, "stderr", None) or err
        logging.getLogger(__name__).warning(
            "compiled kernels not built, the NumPy and SciPy passes run "
            "instead: %s", detail)
        return None
    ptr, size = ctypes.c_void_p, ctypes.c_int64
    lib.avx512.argtypes = []
    lib.avx512.restype = ctypes.c_int
    das, trace = [lib.das_rx], [lib.trace_rays]
    if lib.avx512():
        das.append(lib.das_rx_avx512)
        trace.append(lib.trace_rays_avx512)
    for fn in das:
        fn.argtypes = [ptr] * 3 + [ctypes.c_double, ptr, size, ptr] + \
            [size] * 3 + [ptr]
        fn.restype = None
    for fn in trace:
        fn.argtypes = [ptr, ptr, ptr, size, ptr, size, ctypes.c_double, ptr,
                       ptr]
        fn.restype = None
    lib.rx_sinc.argtypes = [ptr] * 3 + [size] * 2 + [ctypes.c_double] * 4 \
        + [ptr] * 2
    lib.rx_sinc.restype = None
    lib.synth_rx.argtypes = [ptr, size, size] + [ptr] * 9 + \
        [size, ctypes.c_double, ctypes.c_double, size, ptr]
    lib.synth_rx.restype = ctypes.c_int
    return lib


# built at import, so no timed stage pays for the compiler
LIBRARY = load_kernel()
