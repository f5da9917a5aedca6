"""Shared test setup: every test runs under one heap policy.

``train.hold_heap`` changes the whole process, and ``train_loop`` calls it.
Holding the heap before the first test keeps the timing gates (criterion 5,
the bench stability test) from depending on whether a training test ran
first.
"""

from mvgmn import train

train.hold_heap()
