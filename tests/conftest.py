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


# Hostile task files: huge, zero and negative bursts, duplicate ids (some with
# a zero or negative burst too), comments, blanks, malformed rows, CRLF and a
# byte-order mark. Huge bursts are either rejected by a bound or small enough
# to scan quickly. Some fields are wrapped in whitespace that ``str.strip``
# and ``int`` both drop (tab, no-break space, form feed), some carry a sign
# or an underscore that ``int`` accepts, three are past ``int``'s 4300-digit
# limit (one in underscore-joined groups), and some carry a separator
# (``\x1c``, ``\x1f``) that ``str.strip`` drops and ``int`` refuses. Only LF
# ends a line.
_BURSTS = st.one_of(
    st.integers(1, 3000),
    st.sampled_from([10**7, 10**15, 2**62, 2**63, 10**20, 10**400]),
)
_JUNK_LINES = st.sampled_from([
    "# comment", "", "   ", "1,2,3,4", "x,5", "1,", "1,5,0", "1,5,-2", "-1,5",
    "1,7 # dup", "1,0", "2,-3", "9,0", "9,-3", "\t9\t,\t5\t", "\xa09,\xa05\xa0", "\x0c9,\x0c5\x0c",
    "9,+5", "+9,5", "1_0,5", "9,1_0", "9," + "9" * 4301, "9,-" + "9" * 4301,
    "9," + "1_" * 4300 + "1",
    "3,\x1c4", "9\x1c,5", "9,\x1f5",
])


def _hostile_text(bursts, junk, newline, bom):
    lines = [f"{i},{b}" for i, b in enumerate(bursts, start=1)]
    for at, line in junk:
        lines.insert(at, line)
    return bom + newline.join(lines)


HOSTILE_TEXT = st.builds(
    _hostile_text,
    bursts=st.lists(_BURSTS, max_size=8),
    junk=st.lists(st.tuples(st.integers(0, 8), _JUNK_LINES), max_size=2),
    newline=st.sampled_from(["\n", "\r\n"]),
    bom=st.sampled_from(["", "\ufeff"]),
)


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
