"""The compiled kernel library: its build, its cache and its source."""

import ctypes
import os
import platform
import re
import shutil
import subprocess

import pytest

from soscorr import kernels
from soscorr.beamform import BFConfig, das_beamform
from soscorr.geometry import TransducerArray

from test_beamform import UNALIGNED, noise_frame, reference_das

# a function kernels.c exports: a definition at the start of a line,
# which no static one is
EXPORTED = re.compile(r"^(?:void|int) (\w+)\(", re.M)


class TestKernelBuild:
    def test_missing_compiler_falls_back_to_numpy(self, tmp_path, caplog,
                                                  monkeypatch):
        """A compiler that is not there leaves no library, one warning
        naming it and nothing raised; das_beamform then runs the NumPy
        loop and still matches reference_das."""
        cc = str(tmp_path / "no-such-cc")
        with caplog.at_level("WARNING", logger="soscorr.kernels"):
            lib = kernels.load_kernel(cc=[cc], cache_dir=tmp_path)
        assert lib is None
        [warning] = caplog.records
        assert cc in warning.getMessage()
        monkeypatch.setattr(kernels, "DAS", None)
        array = TransducerArray()
        frame = noise_frame(127, 700)
        cfg = BFConfig(c_bf=1522.5, grid=UNALIGNED, apodization="hann")
        out = das_beamform(frame, array, cfg)
        assert out.rf.tobytes() == reference_das(frame, array, cfg).tobytes()

    def test_second_load_hits_the_cache(self, tmp_path, monkeypatch):
        """A built library is loaded again without running the compiler."""
        if kernels.load_kernel(cache_dir=tmp_path) is None:
            pytest.skip("no C compiler on this host")
        [lib] = tmp_path.iterdir()

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran")

        monkeypatch.setattr(kernels.subprocess, "run", no_compiler)
        assert kernels.load_kernel(cache_dir=tmp_path) is not None
        assert list(tmp_path.iterdir()) == [lib]

    def test_temp_cache_is_private(self, tmp_path, monkeypatch, caplog):
        """Where the module's __pycache__ is not writable, the library is
        cached in a directory of the temp dir private to the user; one
        that others may write is refused, so no planted library loads."""
        monkeypatch.setattr(kernels.os, "access", lambda *args: False)
        monkeypatch.setattr(kernels.tempfile, "tempdir", str(tmp_path))
        private = tmp_path / f"soscorr-{os.getuid()}"
        kernels.load_kernel()
        assert private.stat().st_mode & 0o777 == 0o700
        private.chmod(0o777)
        with caplog.at_level("WARNING", logger="soscorr.kernels"):
            assert kernels.load_kernel() is None
        assert "not private" in caplog.text

    def test_source_builds_with_warnings_as_errors(self, tmp_path):
        """kernels.c builds with the loader's flags plus -Wall -Wextra
        -Werror, and at -O0 too, where no inlining hides an intrinsic
        that the vector passes' target does not allow. Each library
        resolves every function the source defines: on x86-64 the
        vector passes and their CPU test, elsewhere the CPU test alone,
        which then reports no vector pass."""
        cc = kernels.compiler()
        if shutil.which(cc[0]) is None:
            pytest.skip("no C compiler on this host")
        defined = set(EXPORTED.findall(kernels.KERNEL_SOURCE.read_text()))
        assert defined == {"das_rx", "avx512", "das_rx_avx512", "trace_rays",
                           "trace_rays_avx512", "rx_sinc", "synth_rx"}
        if platform.machine() not in ("x86_64", "AMD64"):
            defined -= {"das_rx_avx512", "trace_rays_avx512"}
        for opt in ("-O3", "-O0"):
            lib = tmp_path / f"kernels{opt}.so"
            build = subprocess.run(
                [*cc, *kernels.KERNEL_FLAGS, opt, "-Wall", "-Wextra",
                 "-Werror", "-o", str(lib), str(kernels.KERNEL_SOURCE)],
                capture_output=True, text=True)
            assert build.returncode == 0, build.stderr
            loaded = ctypes.CDLL(str(lib))
            for name in sorted(defined):
                assert getattr(loaded, name) is not None, (opt, name)
            assert loaded.avx512() in (0, 1)

    def test_library_imports_no_libm_symbol(self, tmp_path):
        """The library load_kernel builds imports nothing but the
        loader's weak symbols: no libm function, such as the sqrt that
        __builtin_sqrt calls for a negative argument under -fmath-errno,
        nor any other, such as a memset that -O3 makes of a zeroing
        loop. The source's include lines alone would not show either."""
        nm = shutil.which("nm")
        if nm is None:
            pytest.skip("no nm on this host")
        if kernels.load_kernel(cache_dir=tmp_path) is None:
            pytest.skip("no C compiler on this host")
        [lib] = tmp_path.iterdir()
        listed = subprocess.run([nm, "-D", "--undefined-only", str(lib)],
                                capture_output=True, text=True, check=True)
        names = {line.split()[-1].split("@")[0]
                 for line in listed.stdout.splitlines() if line.strip()}
        assert names <= {"_ITM_deregisterTMCloneTable",
                         "_ITM_registerTMCloneTable", "__cxa_finalize",
                         "__gmon_start__"}


class TestSignatureTable:
    def test_every_export_has_an_entry(self):
        """SIGNATURES declares every function kernels.c exports, and
        nothing else, so a pass added to the source without its entry
        fails here."""
        assert set(kernels.SIGNATURES) == set(
            EXPORTED.findall(kernels.KERNEL_SOURCE.read_text()))

    def test_loaded_functions_take_their_entry(self):
        """Every function the loaded library holds has its entry's
        restype and argtypes, so none is called with ctypes' default
        int conversions; off x86-64 only the vector bodies are absent."""
        lib = kernels.LIBRARY
        if lib is None:
            pytest.skip("no C compiler on this host")
        x86 = platform.machine() in ("x86_64", "AMD64")
        for name in EXPORTED.findall(kernels.KERNEL_SOURCE.read_text()):
            restype, argtypes = kernels.SIGNATURES[name]
            fn = getattr(lib, name, None)
            if fn is None:
                assert name.endswith("_avx512") and not x86, name
                continue
            assert (fn.restype, list(fn.argtypes)) == (restype, argtypes), \
                name


class TestPasses:
    def test_names_follow_the_bound_passes(self, monkeypatch):
        """passes() names what kernels binds at call time: a vector body
        "avx512", its scalar twin "compiled" and None "numpy". synth_rx
        reads "avx512" exactly where avx512() is 1, since its loader
        picks the AVX-512F clone by the same CPU test."""
        lib = kernels.LIBRARY
        if lib is None:
            pytest.skip("no C compiler on this host")
        loaded = "avx512" if lib.avx512() else "compiled"
        assert kernels.passes() == {"das_kernel": loaded,
                                    "trace_kernel": loaded,
                                    "synth_kernel": loaded}
        assert (kernels.DAS, kernels.TRACE) == (
            (lib.das_rx_avx512, lib.trace_rays_avx512) if lib.avx512()
            else (lib.das_rx, lib.trace_rays))
        assert (kernels.SYNTH, kernels.SINC) == (lib.synth_rx, lib.rx_sinc)
        monkeypatch.setattr(kernels, "DAS", lib.das_rx)
        monkeypatch.setattr(kernels, "TRACE", None)
        assert kernels.passes() == {"das_kernel": "compiled",
                                    "trace_kernel": "numpy",
                                    "synth_kernel": loaded}
        monkeypatch.setattr(kernels, "DAS", None)
        monkeypatch.setattr(kernels, "TRACE", lib.trace_rays)
        monkeypatch.setattr(kernels, "SYNTH", None)
        assert kernels.passes() == {"das_kernel": "numpy",
                                    "trace_kernel": "compiled",
                                    "synth_kernel": "numpy"}
