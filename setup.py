"""Setup shim: enables legacy editable installs where the `wheel`
package (needed for PEP 660 editable wheels) is unavailable.

Also declares the optional accelerated kernel extension. The build is
best-effort (`optional=True`): when no C toolchain is present the
install succeeds anyway and exploration runs on the pure-Python kernel
backend. `make kernel-ext` rebuilds the extension in place later; once
it imports, exploration uses it.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "repro.analysis.kernel._ckernel",
            sources=["src/repro/analysis/kernel/_ckernel.c"],
            optional=True,
        )
    ]
)
