"""Workload name -> module, imported on first use."""

import importlib

MODULES = {
    "corpus-batch": "corpus_batch",
    "compile-pipeline": "compile_pipeline",
    "service-edit": "service_edit",
}


def module(name: str):
    return importlib.import_module(MODULES[name])
