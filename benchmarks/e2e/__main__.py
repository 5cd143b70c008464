"""``python -m benchmarks.e2e`` runs the harness."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
