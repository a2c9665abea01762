"""tbpslab: a desk-scale laboratory for text-to-image person retrieval recipes.

The package trains a tiny two-tower encoder over a synthetic person-retrieval
corpus and reproduces, at toy scale, a full contrastive training recipe:
a suite of contrastive losses with hand-derived analytic gradients, image and
text augmentation policies, training tricks, retrieval metrics, and
model-compression analytics.

Importing the package before numpy pins BLAS to one thread unless the
caller set a thread count: a multi-threaded BLAS may sum in another order,
so the trained bytes would depend on the thread count, and its idle threads
spin on the core the augmentation worker (`prefetch`) runs on. Imported
after numpy with no thread count set, it warns: BLAS has read its own
thread count by then.
"""

import os
import sys
import warnings

_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if "numpy" in sys.modules and not any(v in os.environ for v in _BLAS_VARS):
    warnings.warn(
        "numpy was imported before tbpslab with no BLAS thread count set, so BLAS "
        "keeps its own thread count and the trained bytes will differ from the "
        "documented ones; import tbpslab before numpy or set OPENBLAS_NUM_THREADS=1",
        RuntimeWarning,
        stacklevel=2,
    )
for _var in _BLAS_VARS:
    os.environ.setdefault(_var, "1")
del _var

__version__ = "0.1.0"
