import tracemalloc


def traced_peak_mib(call):
    """The peak of Python-traced memory, in MiB, while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()
