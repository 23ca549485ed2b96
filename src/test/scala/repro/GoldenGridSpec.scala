package repro

import repro.baselines.{HoloCleanLite, RahaBaranLite}
import repro.datasets.BenchDataset
import repro.eval.{CleaningSystem, CocoonSystem, Harness, Metrics}

/** Cocoon's behaviour contract: the exact cell counts it produces on each of
  * the five benchmarks at their default seeds. Everything is seeded and
  * deterministic, so these are integers, not tolerances; a refactor that
  * moves one of them changes what Cocoon does.
  *
  * The same runs bound the Spark jobs one pipeline run starts. Job count does
  * not depend on the hardware: a run profiles its input once, carries the
  * profile through value maps on the driver and scores FDs in one query, so
  * it takes 12–17 jobs, where profiling each column in each stage took
  * hundreds.
  */
class GoldenGridSpec extends JobCounting {

  private val MaxJobsPerRun = 20

  /** (changedCells, correctChanges, errorCells) under the Table-1 rules
    * (column-type and DMV cells excluded), then under the Table-3 rules
    * (nothing excluded).
    */
  private val pinned = Seq(
    "hospital" -> ((475L, 472L, 524L), (3702L, 3699L, 3751L)),
    "flights"  -> ((488L, 393L, 1202L), (488L, 393L, 1202L)),
    "beers"    -> ((700L, 700L, 700L), (880L, 880L, 880L)),
    "rayyan"   -> ((800L, 800L, 880L), (900L, 900L, 980L)),
    "movies"   -> ((1206L, 1105L, 1122L), (16117L, 16016L, 16033L)),
  )

  /** `system`'s cells on `ds` under the Table-1 and the Table-3 rules. */
  private def cellCounts(system: CleaningSystem, ds: BenchDataset) = {
    val (cleaned, runJobs) = countingJobs(system.clean(spark, ds))
    val out = cleaned.cache()
    try {
      def counts(excluded: Set[String]) = {
        val s = Metrics.score(ds, system.name, out, excluded)
        (s.changedCells, s.correctChanges, s.errorCells)
      }
      (counts(Metrics.table1Excluded), counts(Set.empty), runJobs)
    } finally out.unpersist()
  }

  for ((name, (table1, table3)) <- pinned)
    test(s"Cocoon's cell counts on $name are pinned under the Table-1 and Table-3 rules") {
      val (t1, t3, runJobs) = cellCounts(new CocoonSystem(), Harness.dataset(spark, name))
      assert(t1 == table1)
      assert(t3 == table3)
      assert(runJobs <= MaxJobsPerRun, s"$name: $runJobs Spark jobs in one run")
    }

  /** The baselines share the driver-side [[repro.eval.LocalTable]] code; Flights
    * has no column-type or DMV cells, so both rules give the same counts.
    */
  private val pinnedBaselines = Seq(
    new RahaBaranLite() -> (1116L, 1064L, 1202L),
    new HoloCleanLite() -> (602L, 557L, 1202L),
  )

  for ((system, cells) <- pinnedBaselines)
    test(s"${system.name}'s cell counts on flights are pinned") {
      val (t1, t3, _) = cellCounts(system, Harness.dataset(spark, "flights"))
      assert(t1 == cells)
      assert(t3 == cells)
    }
}
