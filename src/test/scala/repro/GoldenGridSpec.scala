package repro

import repro.bench.{CocoonRuns, PaperGrid}
import repro.eval.Harness

/** Cocoon's behaviour contract: the exact cell counts it produces on each of
  * the five benchmarks at their default seeds (pinned in [[PaperGrid]] with
  * the other systems' counts), and the SHA-256 of the SQL
  * script it emits (§2.2). Everything is seeded and deterministic, so these
  * are integers and hashes, not tolerances; a refactor that moves one of them
  * changes what Cocoon does. Spark runs each emitted script over the input,
  * and DuckDB the same steps rendered in its dialect, and both must give the
  * same rows as the pipeline's cleaned table.
  *
  * The same runs pin the Spark jobs one pipeline run starts. Job count does
  * not depend on the hardware: a run profiles its input once, in one job
  * with no exchange that also counts, for each FD target, the table of its
  * lhs columns' and its own values, NULL cells included; it carries the
  * profile on the driver by evaluating each rewritten column's expression
  * over the table of the columns it reads, so every step is carried, FD
  * repairs from two lhs columns (Hospital's `provider_id` and `zip`)
  * included; it scores FDs from the profile with no query, reads the
  * absence of duplicate rows off the profile and chains the steps into one
  * plan, so every benchmark takes 1 job, where profiling each column in
  * each stage took hundreds. The first read of the cleaned table runs that
  * plan in 3 more, so the pin on the run and its read catches work moved
  * into the reader. A run's only SQL executions are those jobs:
  * each step's plan is built through the DataFrame API, with no SQL text
  * and no temp view, and the profile is carried through that plan with no
  * query. Every run, its scoring and its script compile
  * under whole-stage codegen: a fallback to interpreted execution fails the
  * test. Value maps and FD repairs render as lookups in literal maps, whose
  * generated code does not grow with the number of arms; `FlightsSeedsSpec`
  * holds the same gate on Flights at ten more seeds. The runs are
  * [[CocoonRuns]], measured once and shared with [[PaperGrid]], whose
  * Cocoon row they are, and with `ProfileCarrySpec`.
  */
class GoldenGridSpec extends SparkSpec {

  /** Spark jobs per run, and in the first read of its output. */
  private val pinnedRunJobs = Map("hospital" -> 1L, "flights" -> 1L, "beers" -> 1L, "rayyan" -> 1L, "movies" -> 1L)
  private val ReadJobs      = 3L

  /** Cocoon's pinned counts under the Table-1 and the Table-3 rules. */
  private val pinnedTable1 = PaperGrid.pinnedTable1.toMap
  private val pinnedTable3 = PaperGrid.pinnedTable3.toMap

  /** SHA-256 of `CocoonResult.script` per benchmark. */
  private val pinnedScripts = Map(
    "hospital" -> "fac1f55185e9f37579d8b66944114e9ff6ea02d3e73bdf0a8ed0cfcb063e1c48",
    "flights"  -> "72e58103c39098ca30179a5132a6fd2eb790a2faa2305442391844e5535ab7cb",
    "beers"    -> "bae2ddae061327b8452ddfa83f6b39e4babc8d2777cd66fc3d69ca0bc6e1a308",
    "rayyan"   -> "58af5e137ce8b802a7195c8106f5f6b186839bce879663cd6ed1fa3da31b59b9",
    "movies"   -> "c5a23b26e9f76dfedfd4c7ec2fd5013f2cc1cc271fa3070c9c49792ede4521cf",
  )

  for (name <- Harness.table1.datasets)
    test(s"Cocoon's cell counts on $name are pinned under the Table-1 and Table-3 rules") {
      val run = CocoonRuns(name)
      import run._
      info(s"$runJobs Spark jobs in the run, $readJobs in the first read, $runExecutions SQL executions in the run")
      assert(PaperGrid.cells(table1) == pinnedTable1(("Cocoon", name)))
      assert(PaperGrid.cells(table3) == pinnedTable3(("Cocoon", name)))
      assert(Sha256(result.script) == pinnedScripts(name), s"$name: the emitted script changed")
      assert(runJobs == pinnedRunJobs(name), s"$name: $runJobs Spark jobs in one run")
      assert(runJobs + readJobs == pinnedRunJobs(name) + ReadJobs, s"$name: $runJobs + $readJobs Spark jobs in a run and its first read")
      assert(runExecutions == runJobs, s"$name: $runExecutions SQL executions in a run of $runJobs jobs")

      assert(fallbacks == 0, s"$name: whole-stage codegen fell back $fallbacks times in the run and its scoring")
      ScriptCheck.onSpark(result, ds.dirty, result.cleaned, name)
      ScriptCheck.onDuckDb(result, ds.dirty, result.cleaned)
    }
}
