"""Seeded PICK01 violations: unpicklable tasks on a process pool.

Lint corpus only — never imported.
"""

from repro.runtime import PersistentExecutor


def square_all(xs):
    with PersistentExecutor(2) as ex:
        return ex.map(lambda x: x * x, xs)


def nested_task(xs):
    def work(x):
        return x + 1

    with PersistentExecutor(2) as ex:
        return ex.map(work, xs)
