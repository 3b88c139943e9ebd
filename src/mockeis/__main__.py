import gc

# A CLI process runs without the cyclic GC; see cli.entrypoint.
gc.disable()

from .cli import entrypoint

entrypoint()
