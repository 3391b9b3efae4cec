import math
import random

import pytest
from hypothesis import strategies as st

from ctqsched import TaskSet


def task_sets(max_n: int = 10, max_burst: int = 60):
    """Random FIFO queues: n in [1, max_n], bursts in [1, max_burst]."""
    return st.lists(
        st.integers(min_value=1, max_value=max_burst), min_size=1, max_size=max_n
    ).map(TaskSet.from_bursts)


def drain_bursts(max_n: int = 60):
    """Bursts of the CTQ drain workload: up to ``max_n`` tasks, log-uniform in
    [1, 1000], so most pairs sit far apart and a few close together, and CTQ
    runs several rounds."""
    return st.lists(
        st.floats(0, math.log(1000)).map(lambda x: max(1, round(math.exp(x)))),
        min_size=1,
        max_size=max_n,
    )


def bimodal_task_set(seed: int) -> TaskSet:
    """5 to 50 tasks; each burst is short (1-20 tu) with probability 0.7,
    else long (200-1000 tu). As tasks finish, the best quantum for the
    survivors moves, so CTQ's rescans change its quantum on these sets far
    more often than on bursts drawn uniformly."""
    r = random.Random(seed)
    n = r.randint(5, 50)
    return TaskSet.from_bursts(
        r.randint(1, 20) if r.random() < 0.7 else r.randint(200, 1000) for _ in range(n)
    )


@pytest.fixture(scope="session")
def bimodal_workloads():
    """The bimodal family at seeds 0 to 299."""
    return [bimodal_task_set(seed) for seed in range(300)]
