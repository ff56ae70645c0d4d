"""The package's compiled passes, one C library loaded through ctypes,
and the one module that picks and names them.

kernels.c holds das_rx, the pass of
:func:`~soscorr.beamform.das_beamform` over a frame's receivers;
trace_rays, the heterogeneous ray trace of one block of
:func:`~soscorr.synthsim.travel_times`; das_rx_avx512 and
trace_rays_avx512, the same passes 8 pixels or rays a step, built for
AVX-512F only on x86-64; rx_sinc and synth_rx, which form a receive
channel of :func:`~soscorr.synthsim.simulate_frame` from its travel
times, distances and directivities' sines and sum its pulses;
solve_avx512, the value and gradient of
:func:`~soscorr.tomo.make_objective` on matrices that sell8_pack lays
out as SELL-8, built for AVX-512F only on x86-64; and ncc_track, the
numeric body of :func:`~soscorr.delaytrack.track_delays`. The first
import builds it with the host's C compiler into a cached library, once
for all; ctypes releases the GIL around each call, so threads run the
passes in parallel. Each pass gives the same bytes as the NumPy or
SciPy code it stands beside: -ffp-contract=off keeps every product and
sum rounding on its own, with no fused multiply-add, the vector passes
write each as its own intrinsic, and the C code calls no libm function.
The library is built for the baseline of its architecture, not with
-march, so a cached library runs on any host of that architecture.
DAS and TRACE are the vector bodies where avx512() finds AVX-512F on
the host, else the scalar ones; SYNTH is synth_rx, which on x86-64 is
built for both, the loader picking one, and SINC is rx_sinc. SOLVE is
solve_avx512, with SELL its packer, only where avx512() finds AVX-512F:
it has no scalar body, as a scalar CSR product is no faster than
SciPy's. NCC is ncc_track. Callers read them at call time, and run
their NumPy or SciPy code where one is None, as all are where the
library does not build or load (one warning is logged); :func:`passes`
names what runs.
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


_PTR, _SIZE, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
_DAS = (None, [_PTR] * 3 + [_F64, _PTR, _SIZE, _PTR] + [_SIZE] * 3 + [_PTR])
_TRACE = (None, [_PTR, _PTR, _PTR, _SIZE, _PTR, _SIZE, _F64, _PTR, _PTR])
# (restype, argtypes) of every function kernels.c exports; a vector
# body, built on x86-64 only, shares its scalar twin's entry
SIGNATURES = {
    "avx512": (ctypes.c_int, []),
    "das_rx": _DAS, "das_rx_avx512": _DAS,
    "trace_rays": _TRACE, "trace_rays_avx512": _TRACE,
    "rx_sinc": (None, [_PTR] * 3 + [_SIZE] * 2 + [_F64] * 4 + [_PTR] * 2),
    "synth_rx": (ctypes.c_int, [_PTR, _SIZE, _SIZE] + [_PTR] * 9
                 + [_SIZE, _F64, _F64, _SIZE, _PTR]),
    "sell8_pack": (None, [_PTR] * 4 + [_SIZE] + [_PTR] * 5),
    "solve_avx512": (None, [_PTR] * 6 + [_F64] * 3 + [_PTR] * 4),
    "ncc_track": (_SIZE, [_PTR, _PTR] + [_SIZE] * 7 + [_F64, _F64]
                  + [_PTR] * 4),
}


def load_kernel(cc: list[str] | None = None,
                cache_dir: Path | None = None) -> ctypes.CDLL | None:
    """The library of kernels.c, built with cc into cache_dir, with
    every function of SIGNATURES that it holds declared; or None.

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
            "compiled kernels not built, the NumPy passes run instead: %s",
            detail)
        return None
    for name, (restype, argtypes) in SIGNATURES.items():
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype, fn.argtypes = restype, argtypes
    return lib


def _pass_name(fn) -> str:
    """The pass fn as a record names it: "numpy" where it is None;
    "avx512" for a vector body, or for synth_rx where avx512() is 1, as
    its loader picks the AVX-512F clone by the same CPU test; else
    "compiled"."""
    if fn is None:
        return "numpy"
    vector = fn.__name__.endswith("_avx512") or fn is SYNTH and \
        LIBRARY.avx512()
    return "avx512" if vector else "compiled"


def passes() -> dict[str, str]:
    """The passes that run now, by the names a command record gives
    those it ran: das_kernel (DAS), trace_kernel (TRACE), synth_kernel
    (SYNTH), solve_kernel (SOLVE) and ncc_kernel (NCC)."""
    return {"das_kernel": _pass_name(DAS), "trace_kernel": _pass_name(TRACE),
            "synth_kernel": _pass_name(SYNTH),
            "solve_kernel": _pass_name(SOLVE), "ncc_kernel": _pass_name(NCC)}


# built at import, so no timed stage pays for the compiler
LIBRARY = load_kernel()
# the pass each caller runs, read at call time; None runs its NumPy code
DAS = TRACE = SYNTH = SINC = SOLVE = SELL = NCC = None
if LIBRARY is not None:
    if LIBRARY.avx512():
        DAS, TRACE = LIBRARY.das_rx_avx512, LIBRARY.trace_rays_avx512
        SOLVE, SELL = LIBRARY.solve_avx512, LIBRARY.sell8_pack
    else:
        DAS, TRACE = LIBRARY.das_rx, LIBRARY.trace_rays
    SYNTH, SINC, NCC = LIBRARY.synth_rx, LIBRARY.rx_sinc, LIBRARY.ncc_track
