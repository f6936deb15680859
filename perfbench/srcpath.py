"""Make the checkout's own ``src/germimage`` importable, and nothing else.

The benchmark measures the source tree it sits in.  If that tree has no
``src/germimage`` (for example a directory holding only the benchmark), or
if ``import germimage`` would resolve to some other copy, the benchmark
stops with an error instead of measuring the wrong program.
"""

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"


class MissingProgramError(RuntimeError):
    pass


def import_germimage():
    """Import ``germimage`` from ``<checkout>/src``; returns the package."""
    package_dir = SRC / "germimage"
    if not (package_dir / "__init__.py").is_file():
        raise MissingProgramError(f"no germimage sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import germimage

    if Path(germimage.__file__).resolve().parent != package_dir.resolve():
        raise MissingProgramError(
            f"germimage was imported from {germimage.__file__}, not from {package_dir}"
        )
    return germimage
