"""Canonical 8-feature state vector shared by the pool builder and the model.

The order is fixed.  The pool builder takes each feature's klog column by
name in STATE_FEATURES order, but the closed loop (`evaluation.LlmEvery.hook`)
builds its tuple in that order by hand; `TestOnlineWindowParity` in
tests/test_evaluation.py holds the two equal, bit for bit.
"""

STATE_FEATURES = (
    "queue_type",
    "burst_allowance",
    "drop_probability",
    "current_queue_delay",
    "accumulated_probability",
    "length_in_bytes",
    "total_drops_delta",
    "packet_length",
)

STATE_DIM = len(STATE_FEATURES)

FEATURE_INDEX = {name: i for i, name in enumerate(STATE_FEATURES)}

# The temporal features: each goes through its own causal conv over the
# window in the state encoder; the rest take the per-feature linear path.
CONV_FEATURES = ("current_queue_delay", "length_in_bytes", "total_drops_delta")

ACTION_ENQUEUE = 0
ACTION_DROP = 1
ACTION_MARK = 2
ACTION_COUNT = 3
ACTION_NAMES = ("enqueue", "drop", "mark")   # indexed by action
