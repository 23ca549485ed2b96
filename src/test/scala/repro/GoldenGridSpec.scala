package repro

import repro.bench.{CocoonRuns, PaperGrid}
import repro.core.CleaningStep
import repro.eval.Harness
import repro.util.SqlGen

/** Cocoon's behaviour contract: the exact cell counts it produces on each of
  * the five benchmarks at their default seeds (pinned in [[PaperGrid]] with
  * the other systems' counts), and the SHA-256 of the SQL
  * script it emits (§2.2). Everything is seeded and deterministic, so these
  * are integers and hashes, not tolerances; a refactor that moves one of them
  * changes what Cocoon does. Spark runs each emitted script over the input,
  * and DuckDB the same steps rendered in its dialect, and both must give the
  * same rows as the pipeline's cleaned table.
  *
  * The same runs bound the Spark jobs one pipeline run starts. Job count does
  * not depend on the hardware: a run profiles its input once, carries the
  * profile through value maps on the driver, scores FDs in one query, runs
  * each of these queries as one job with no exchange, reads the absence of
  * duplicate rows off the profile and chains the steps into one plan, so it
  * takes 2 jobs, where profiling each column in each stage took hundreds.
  * Hospital takes 3: its FD arms overlap, so the table is profiled again
  * after the FD step. The first read of the cleaned table runs that plan in
  * 3 more, so the bound on the run and its read catches work moved into the
  * reader. A run's only SQL executions are those jobs and one temp-view
  * command per applied step: the profile is carried through each step's
  * resolved plan with no query. Every run, its scoring and its script compile
  * under whole-stage codegen: a fallback to interpreted execution fails the
  * test. The runs are [[CocoonRuns]], measured once and shared with
  * `ProfileCarrySpec`.
  */
class GoldenGridSpec extends SparkSpec {

  private val MaxJobsPerRun        = 3
  private val MaxJobsPerRunAndRead = 6

  /** Cocoon's pinned counts under the Table-1 and the Table-3 rules. */
  private val pinnedTable1 = PaperGrid.pinnedTable1.toMap
  private val pinnedTable3 = PaperGrid.pinnedTable3.toMap

  /** SHA-256 of `CocoonResult.script` per benchmark. */
  private val pinnedScripts = Map(
    "hospital" -> "cc4bc46d22664cbc93fa5e394cf9dc69b4f64c3d5a731cd4294aaed4e8560519",
    "flights"  -> "f46f47a0b687a5f68cd0f72e1a37fefd42031c8fca031c1ada3c42ac2367650e",
    "beers"    -> "9588434418d91b6b256b34bf1dd58143f82aad4764ed2ce8bff06d671e40b205",
    "rayyan"   -> "b86c04cff780fbfbc84aaa287bdfb1a0d1ebc9b220562fc48e89c54adc830ca4",
    "movies"   -> "a01a856b77bb376ae93b8f31b960b21ce9f708fc54f7d607dd4fb669d59103e5",
  )

  for (name <- Harness.table1.datasets)
    test(s"Cocoon's cell counts on $name are pinned under the Table-1 and Table-3 rules") {
      val run = CocoonRuns(name)
      import run._
      info(s"$runJobs Spark jobs in the run, $readJobs in the first read, $runExecutions SQL executions in the run")
      assert(table1 == pinnedTable1(("Cocoon", name)))
      assert(table3 == pinnedTable3(("Cocoon", name)))
      assert(Sha256(result.script) == pinnedScripts(name), s"$name: the emitted script changed")
      assert(runJobs <= MaxJobsPerRun, s"$name: $runJobs Spark jobs in one run")
      assert(runJobs + readJobs <= MaxJobsPerRunAndRead, s"$name: $runJobs + $readJobs Spark jobs in a run and its first read")
      assert(runExecutions == runJobs + result.steps.size,
        s"$name: $runExecutions SQL executions in a run of $runJobs jobs and ${result.steps.size} steps")

      ds.dirty.createOrReplaceTempView("input")
      val (_, scriptFallbacks) = try CodegenFallbacks.counting {
        val scripted = spark.sql(result.script)
        assert(result.cleaned.exceptAll(scripted).isEmpty, s"$name: rows of cleaned missing from the script's output")
        assert(scripted.exceptAll(result.cleaned).isEmpty, s"$name: rows of the script's output missing from cleaned")
      } finally spark.catalog.dropTempView("input")
      assert(fallbacks == 0 && scriptFallbacks == 0,
        s"$name: whole-stage codegen fell back $fallbacks times in the run and its scoring, $scriptFallbacks in the script")
      Oracle.assertEquivalent(result.cleaned, CleaningStep.renderScript(result.steps, result.columns, SqlGen.identAnsi), "input" -> ds.dirty)
    }
}
