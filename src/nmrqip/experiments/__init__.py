"""Algorithm and simulation experiments built on the core simulator.

Import from the submodules: contextuality, dqc1, ising, transfer, weakvalue
and xxz.
"""
