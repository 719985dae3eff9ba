"""Fixed reference work that sets the benchmark's unit of machine speed.

``run.py`` runs this script as its own process before every pipeline and
after the last one, and divides each measured time by the median wall
time of those runs.  The work resembles one ``citegap`` command but uses
nothing from ``citegap``: interpreter start-up, the numpy and
``scipy.sparse`` imports, a dict-heavy Python loop, a numpy sort and
sparse matrix-vector products.  It takes about one second on a 2-core
machine.  It leaves out ``scipy.stats``, whose import alone took over a
second there; a reference with it scaled the pipelines less steadily.
Changing it changes every scaled metric, so two commits are comparable
only if they were measured with the same reference.
"""
import numpy as np
from scipy import sparse

N = 30_000
EDGES = 200_000

counts: dict[str, int] = {}
for i in range(300_000):
    key = str(i % 5_000)
    counts[key] = counts.get(key, 0) + i

rng = np.random.default_rng(0)
np.sort(rng.random(1_000_000))

ends = rng.integers(0, N, (2, EDGES))
matrix = sparse.csr_matrix((np.ones(EDGES), (ends[0], ends[1])), shape=(N, N))
x = np.ones(N)
for _ in range(60):
    x = matrix @ x
    x /= x.sum()
