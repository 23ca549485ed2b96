package repro

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import repro.eval.{CocoonSystem, Harness, Metrics}

/** Cocoon's behaviour contract: the exact cell counts it produces on each of
  * the five benchmarks at their default seeds. Everything is seeded and
  * deterministic, so these are integers, not tolerances; a refactor that
  * moves one of them changes what Cocoon does.
  *
  * The same runs bound the Spark jobs one pipeline run starts. Job count does
  * not depend on the hardware: with one profile per table state and one FD
  * scoring query, a run takes tens of jobs, where profiling each column in
  * each stage took hundreds.
  */
class GoldenGridSpec extends SparkSpec {

  private val MaxJobsPerRun = 100

  private val jobs = new AtomicLong
  private val jobCounter = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  }

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.sparkContext.addSparkListener(jobCounter)
  }

  override def afterAll(): Unit = {
    spark.sparkContext.removeSparkListener(jobCounter)
    super.afterAll()
  }

  /** `body`'s result and the number of Spark jobs it started. */
  private def countingJobs[A](body: => A): (A, Long) = {
    ListenerBusAccess.drain(spark.sparkContext)
    val before = jobs.get
    val a = body
    ListenerBusAccess.drain(spark.sparkContext)
    (a, jobs.get - before)
  }

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

  for ((name, (table1, table3)) <- pinned)
    test(s"Cocoon's cell counts on $name are pinned under the Table-1 and Table-3 rules") {
      val ds = Harness.dataset(spark, name)
      val (cleaned, runJobs) = countingJobs(new CocoonSystem().clean(spark, ds))
      val out = cleaned.cache()
      try {
        def counts(excluded: Set[String]) = {
          val s = Metrics.score(ds, "Cocoon", out, excluded)
          (s.changedCells, s.correctChanges, s.errorCells)
        }
        assert(counts(Metrics.table1Excluded) == table1)
        assert(counts(Set.empty) == table3)
        assert(runJobs <= MaxJobsPerRun, s"$name: $runJobs Spark jobs in one run")
      } finally out.unpersist()
    }
}
