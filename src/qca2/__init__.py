"""Simulator for 1-D quantum cellular automata with two qubits per cell."""
