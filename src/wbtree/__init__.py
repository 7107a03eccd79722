"""Weight-balanced search trees with a red-black baseline and benchmarks.

Import the submodules directly: wbtree.top_down, wbtree.bottom_up,
wbtree.redblack, wbtree.oracle, wbtree.bench and so on.
"""

__version__ = "0.1.0"
