"""sarif_triage: LLM-adjudicated triage of SARIF static-analysis alerts.

Pipeline: parse SARIF results into canonical findings, slice the code
context along each dataflow trace, compile deterministic CWE-aware prompts,
adjudicate through a pluggable model backend, and score verdicts against
ground truth.

``import sarif_triage`` loads no submodule and exports only
``__version__``; import each name from the module that defines it, so a
command pays only for the stages it runs.
"""

__version__ = "0.1.0"
