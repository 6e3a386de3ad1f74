"""Build script for the optional compiled vote kernels.

The package works without the extension (``platefuse.core`` falls back to the
pure-Python kernels), so a failed compile only costs speed. Without Cython the
extension is compiled from the committed generated ``_kernels.c``.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Treat extension build failures as a soft error."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"warning: compiled kernels skipped ({exc}); "
                  "falling back to pure-Python kernels")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"warning: building {ext.name} failed ({exc}); "
                  "falling back to pure-Python kernels")


def extensions():
    try:
        from Cython.Build import cythonize
    except ImportError:
        return [Extension("platefuse._kernels", ["src/platefuse/_kernels.c"])]
    ext = Extension("platefuse._kernels", ["src/platefuse/_kernels.pyx"])
    return cythonize([ext], language_level="3")


setup(ext_modules=extensions(), cmdclass={"build_ext": OptionalBuildExt})
