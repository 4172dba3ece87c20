"""Workload generators, imported from their modules (the package exports
nothing): PAC operation histories (:mod:`repro.workloads.histories`),
snapshot client workloads (:mod:`repro.workloads.generators`) and the
interference scheduler (:mod:`repro.workloads.interference`)."""
