"""repro: a reproduction of Boral, DeWitt & Bates (1982), "A Framework for

Research in Database Management for Statistical Analysis".

The package implements the paper's proposed statistical DBMS end to end:

* ``repro.storage`` — WiSS-style substrate: simulated disk/tape with I/O
  accounting, buffer pool, heap files, transposed (column) files with
  run-length compression, B+-tree indexes;
* ``repro.relational`` — the flat-file relational engine (select, project,
  join, aggregates, a SQL subset) used to materialize views;
* ``repro.metadata`` — function registry, update rules, code books,
  SUBJECT-style meta-data navigation, the Management Database;
* ``repro.summary`` — the per-view Summary Database: a cache of function
  results with consistency policies;
* ``repro.incremental`` — finite differencing: automatically derived
  algebraic forms, the median/quantile histogram window, maintained
  frequency tables and histograms, derived-column rules;
* ``repro.stats`` — the statistical package layer (descriptive stats,
  cross-tabs, chi-squared/K-S tests, OLS residuals, sampling);
* ``repro.views`` — concrete view materialization from tape, update
  histories with undo/rollback, predicate updates, sharing/publication;
* ``repro.core`` — the DBMS facade and analyst sessions tying it together;
* ``repro.concurrency`` — the multi-analyst service substrate: per-view
  reader/writer locks with deadlock detection, snapshot-consistent read
  transactions, and group commit;
* ``repro.server`` — an asyncio wire server (length-prefixed JSON frames)
  plus a blocking client, so many analysts can share one DBMS process;
* ``repro.workloads`` — census-like generators, session event streams
  and update streams for the claims tests and examples.

Quickstart::

    from repro.core import StatisticalDBMS
    from repro.views import SourceNode, ViewDefinition
    from repro.workloads.census import figure1_dataset

    dbms = StatisticalDBMS()
    dbms.load_raw(figure1_dataset())
    created = dbms.create_view(
        ViewDefinition("my_view", SourceNode("census_fig1")))
    session = dbms.session("my_view", analyst="boral")
    session.compute("median", "AVE_SALARY")   # computed, cached
    session.compute("median", "AVE_SALARY")   # served from the cache
"""

from repro.core.dbms import StatisticalDBMS

__version__ = "1.0.0"

__all__ = ["StatisticalDBMS", "__version__"]
