package repro.bench

import scala.collection.mutable

import repro.{CodegenFallbacks, SparkSpec}
import repro.JobCounting.{countingExecutions, countingJobs}
import repro.core.{CocoonConfig, CocoonPipeline, CocoonResult}
import repro.datasets.BenchDataset
import repro.eval.{Harness, Metrics, ResultTable, Scores}
import repro.llm.SimulatedLLM

/** One measured Cocoon run per benchmark at its default seed, made once per
  * test run and shared by the suites that read it: `GoldenGridSpec` pins its
  * cells, script, Spark jobs and codegen fallbacks, [[PaperGrid]] takes its
  * scores as Cocoon's row of the Table-1 and Table-3 grids, and
  * `ProfileCarrySpec` replays its steps.
  *
  * Every count is taken inside the memoised run, so it does not depend on
  * which suite asks first: the jobs and SQL executions the run starts, the
  * jobs of the first read of its cached output, its scores under the Table-1
  * and the Table-3 rules, and the codegen fallbacks of all of these.
  */
object CocoonRuns {

  final case class Run(
      ds: BenchDataset,
      result: CocoonResult,
      table1: Scores,
      table3: Scores,
      runJobs: Long,
      runExecutions: Long,
      readJobs: Long,
      fallbacks: Long,
  )

  private val runs = mutable.Map.empty[String, Run]

  def apply(name: String): Run = synchronized(runs.getOrElseUpdate(name, measure(name)))

  private def measure(name: String): Run = {
    val spark = SparkSpec.shared
    val ds = Harness.dataset(spark, name)
    val (run, fallbacks) = CodegenFallbacks.counting {
      val ((res, runJobs), runExecutions) = countingExecutions(countingJobs(
        CocoonPipeline.run(spark, ds.dirty, new SimulatedLLM(), CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name))))
      val out = res.cleaned.cache()
      try {
        val (_, readJobs) = countingJobs(out.count())
        def score(t: ResultTable) = Metrics.score(ds, "Cocoon", out, t.excludeTypes)
        Run(ds, res, score(Harness.table1), score(Harness.table3), runJobs, runExecutions, readJobs, fallbacks = 0L)
      } finally out.unpersist()
    }
    run.copy(fallbacks = fallbacks) // counted once the scoring is done too
  }
}
