"""Core workflow model of the SeBS-Flow reproduction.

This package implements the paper's primary contribution: the platform-agnostic
serverless workflow model (WFD-nets extended with coordinators and resource
annotations), the JSON workflow definition language, and the transcribers to
the proprietary formats of AWS Step Functions, Google Cloud Workflows, and
Azure Durable Functions.

Import names from the submodules -- :mod:`.definition` and :mod:`.phases`
(the definition language), :mod:`.builder` (data specifications, Table 4
statistics, and the net builder), :mod:`.critical_path` (measurements),
:mod:`.petri` and :mod:`.wfdnet` (the model), and :mod:`.transcription`.
The package itself re-exports nothing, so running a benchmark loads only the
modules it uses and never the Petri-net model.
"""
