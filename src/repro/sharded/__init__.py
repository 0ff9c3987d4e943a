"""Sharded / out-of-core graph substrate (DESIGN §12).

Partition a graph into memory-mapped shards and run the traversal /
community kernels shard-at-a-time under a BSP superstep driver, with
results bit-identical to the in-core paths.
"""

from repro import _lazy

# each module loads on first use: telling a shard set from a graph file
# imports only shards, running a kernel also bsp and algorithms
__getattr__, __dir__ = _lazy.exports(globals(), {
    **dict.fromkeys((
        "Shard", "ShardSet", "build_shard_set", "in_core_nbytes",
        "is_shard_set_path", "load_shard", "open_shard_set",
    ), "repro.sharded.shards"),
    **dict.fromkeys((
        "CHECKPOINT_DIRNAME", "BSPCheckpointer", "BSPDriver", "MemoryBudget",
        "SuperstepStats",
    ), "repro.sharded.bsp"),
    **dict.fromkeys((
        "sharded_msbfs", "sharded_closeness", "sharded_connected_components",
        "sharded_modularity", "sharded_contract", "sharded_pla",
    ), "repro.sharded.algorithms"),
})

__all__ = [
    "Shard",
    "ShardSet",
    "build_shard_set",
    "open_shard_set",
    "load_shard",
    "is_shard_set_path",
    "in_core_nbytes",
    "BSPDriver",
    "BSPCheckpointer",
    "CHECKPOINT_DIRNAME",
    "MemoryBudget",
    "SuperstepStats",
    "sharded_msbfs",
    "sharded_closeness",
    "sharded_connected_components",
    "sharded_modularity",
    "sharded_contract",
    "sharded_pla",
]
