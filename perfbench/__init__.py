"""Serving benchmark for the compressed-model serving stack.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
