"""Coverage-guided schedule/response fuzzing (``repro fuzz``).

Exhaustive exploration proves the paper's theorems at small ``n``; the
fuzzer extends every safety check beyond exhaustive reach by *sampling*
the same run set Gafni's "set of runs" framing assigns to an object:
seeded random schedules plus adversarial nondeterministic-response
choices, guided by novel-interned-configuration coverage, with every
finding delta-debugged to a minimal schedule and round-tripped through
the strict scripted replay machinery. See ``docs/fuzzing.md``.

Layering:

* :mod:`repro.fuzz.target` — what can be fuzzed (candidates,
  Algorithm 2 instances), rebuildable from portable specs;
* :mod:`repro.fuzz.executor` — deterministic gene interpretation and
  intern-table coverage;
* :mod:`repro.fuzz.corpus` — persistent content-addressed corpus
  (cache-style ``<fp[:2]>/<fp>.json`` layout);
* :mod:`repro.fuzz.shrink` — fixpoint ddmin + strict replay bridge;
* :mod:`repro.fuzz.engine` — seeded shards fanned over the
  verification pool, merged deterministically.

The package exports nothing: run a campaign with
``repro.api.execute(FuzzRequest(...))`` or import from the modules.
"""
