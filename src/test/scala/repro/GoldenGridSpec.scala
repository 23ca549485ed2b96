package repro

import org.apache.spark.sql.DataFrame
import repro.baselines.{HoloCleanLite, RahaBaranLite}
import repro.core.{CleaningStep, CocoonConfig, CocoonPipeline}
import repro.datasets.BenchDataset
import repro.eval.{Harness, Metrics}
import repro.llm.SimulatedLLM
import repro.util.SqlGen

/** Cocoon's behaviour contract: the exact cell counts it produces on each of
  * the five benchmarks at their default seeds, and the SHA-256 of the SQL
  * script it emits (§2.2). Everything is seeded and deterministic, so these
  * are integers and hashes, not tolerances; a refactor that moves one of them
  * changes what Cocoon does. Spark runs each emitted script over the input,
  * and DuckDB the same steps rendered in its dialect, and both must give the
  * same rows as the pipeline's cleaned table.
  *
  * The same runs bound the Spark jobs one pipeline run starts. Job count does
  * not depend on the hardware: a run profiles its input once, carries the
  * profile through value maps on the driver, scores FDs in one query, gives
  * each of these queries one shuffle and reads the absence of duplicate rows
  * off the profile, so it takes 6–10 jobs, where profiling each column in
  * each stage took hundreds.
  */
class GoldenGridSpec extends JobCounting {

  private val MaxJobsPerRun = 12

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

  /** SHA-256 of `CocoonResult.script` per benchmark. */
  private val pinnedScripts = Map(
    "hospital" -> "0f89aa631f5002511118849003cb3bf7c8813d77f3a738f0667f2d1daca4a253",
    "flights"  -> "11dc8c073ac4a34a7996f0d9c277899be2603a92ed354e97d95f2c206bd57a5a",
    "beers"    -> "ea496550da3b10600734d2af6839742e19b30bbff6d2e91dc1e7debd05bec4ea",
    "rayyan"   -> "aaba6c632ac433279cbd8f74139da02ed029e43af4b2c521f64d25d810e25dff",
    "movies"   -> "f41cacd40044e5bc41088a1a4be221f941fb10cbfa33a959a54abe501928ecc8",
  )

  /** The cells of `clean`'s output on `ds` under the Table-1 and the Table-3
    * rules, with the value `clean` returns beside its output and its job count.
    */
  private def cellCounts[A](name: String, ds: BenchDataset)(clean: => (DataFrame, A)) = {
    val ((cleaned, extra), runJobs) = countingJobs(clean)
    val out = cleaned.cache()
    try {
      def counts(excluded: Set[String]) = {
        val s = Metrics.score(ds, name, out, excluded)
        (s.changedCells, s.correctChanges, s.errorCells)
      }
      (counts(Metrics.table1Excluded), counts(Set.empty), extra, runJobs)
    } finally out.unpersist()
  }

  for ((name, (table1, table3)) <- pinned)
    test(s"Cocoon's cell counts on $name are pinned under the Table-1 and Table-3 rules") {
      val ds = Harness.dataset(spark, name)
      val (t1, t3, res, runJobs) = cellCounts("Cocoon", ds) {
        val res = CocoonPipeline.run(spark, ds.dirty, new SimulatedLLM(), CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name))
        (res.cleaned, res)
      }
      info(s"$runJobs Spark jobs")
      assert(t1 == table1)
      assert(t3 == table3)
      assert(Sha256(res.script) == pinnedScripts(name), s"$name: the emitted script changed")
      assert(runJobs <= MaxJobsPerRun, s"$name: $runJobs Spark jobs in one run")

      ds.dirty.createOrReplaceTempView("input")
      try {
        val scripted = spark.sql(res.script)
        assert(res.cleaned.exceptAll(scripted).isEmpty, s"$name: rows of cleaned missing from the script's output")
        assert(scripted.exceptAll(res.cleaned).isEmpty, s"$name: rows of the script's output missing from cleaned")
      } finally spark.catalog.dropTempView("input")
      Oracle.assertEquivalent(res.cleaned, CleaningStep.renderScript(res.steps, res.columns, SqlGen.identAnsi), "input" -> ds.dirty)
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
      val ds = Harness.dataset(spark, "flights")
      val (t1, t3, _, _) = cellCounts(system.name, ds)((system.clean(spark, ds), ()))
      assert(t1 == cells)
      assert(t3 == cells)
    }
}
