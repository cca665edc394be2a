"""Evaluation harness: runners, metrics, analytic model, experiments."""
