"""Experiment harness: one module per table / figure of the paper.

Every module exposes a ``run_*`` function returning plain result objects and a
``main()`` that prints the same rows/series the paper reports.  There is one
way to regenerate the paper: ``python -m repro.experiments.<module>`` for the
numbers, and ``python -m pytest -q -m slow`` for the shapes asserted of them
(``tests/test_experiments.py`` calls the ``run_*`` functions with reduced
durations).

| Paper artefact | Module |
|---|---|
| Table 1 (cheat detectability) | :mod:`repro.experiments.table1` |
| Figure 3 (log growth)         | :mod:`repro.experiments.fig3_log_growth` |
| Figure 4 (log content)        | :mod:`repro.experiments.fig4_log_content` |
| Figure 5 (ping RTT)           | :mod:`repro.experiments.fig5_latency` |
| Figure 6 (CPU utilisation)    | :mod:`repro.experiments.fig6_cpu` |
| Figure 7 (frame rate)         | :mod:`repro.experiments.fig7_frame_rate` |
| Figure 8 (online auditing)    | :mod:`repro.experiments.fig8_online_audit` |
| Figure 9 (spot checking)      | :mod:`repro.experiments.fig9_spot_check` |
| Section 6.5 (frame-rate cap)  | :mod:`repro.experiments.sec65_frame_cap` |
| Section 6.6 (audit cost)      | :mod:`repro.experiments.sec66_audit_cost` |
| Section 6.7 (network traffic) | :mod:`repro.experiments.sec67_traffic` |

The adversary scenario matrix (:mod:`repro.experiments.adversary_matrix`)
is the one module beyond the paper.  System benchmarks live in ``bench/``
(the benchmark of record).  Library code — fleets, game sessions, trust
setup — lives in the library packages, and no library package imports
this one.
"""
