package perfbench

import scala.collection.mutable

import org.apache.spark.PerfbenchAccess
import org.apache.spark.sql.SparkSession

import repro.core.{CocoonConfig, CocoonPipeline}
import repro.eval.{Metrics, Scores}
import repro.llm.SimulatedLLM

/** One benchmark process: set up a workload, run `passes` passes of
  * `CocoonPipeline.run` on it, check every pass's output and print the
  * metrics as the last line, one JSON object.
  *
  * The first pass is the JVM's first, which a job run with spark-submit pays
  * on every run: it runs 25-50% slower than later passes while the JIT and
  * Spark's codegen cache fill.
  *
  * A timed run (trace 0) adds only a job counter and the counting LLM
  * decorator. A traced run (trace 1) also attributes each job to a module
  * and stage, times jobs and LLM calls, and counts codegen fallbacks.
  *
  * Usage: perfbench.Main --workload <name> --seed <n> --trace <0|1>
  *          --passes <n> --work-dir <dir>
  */
object Main {

  /** Set-ups per run; `setup_s` counts their median. */
  val SetupReps = 3

  /** Workload seed at which the Table-1 counts are pinned. */
  val PinnedSeed = 42L

  private def secs(t0: Long): Double = (System.nanoTime() - t0) / 1e9

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted; val m = s.size / 2
    if (s.size % 2 == 1) s(m) else (s(m - 1) + s(m)) / 2
  }

  final case class Pass(
      cleanS: Double,
      jobs: Long,
      llm: CountingLLM,
      spans: Seq[JobSpan],
      fallbacks: Long,
      script: String,
      scores: Scores,
      scoreS: Double,
      problems: Seq[String],
  )

  def main(args: Array[String]): Unit = {
    val opts      = args.grouped(2).map(a => a(0).stripPrefix("--") -> a(1)).toMap
    val workload  = Workload(opts("workload"))
    val seed      = opts("seed").toLong
    val traced    = opts("trace") == "1"
    val passes    = opts("passes").toInt
    val workDir   = opts("work-dir")

    val t0 = System.nanoTime()
    val spark = SparkSession.builder()
      .master("local[4]")
      .appName(s"perfbench-${workload.name}")
      .config("spark.sql.shuffle.partitions", "16")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$workDir/spark-local")
      .config("spark.sql.warehouse.dir", s"$workDir/warehouse")
      .config("spark.hadoop.hadoop.tmp.dir", s"$workDir/hadoop")
      .getOrCreate()
    val sc = spark.sparkContext
    sc.setLogLevel("ERROR")
    val sessionS = secs(t0)
    val jobs = new JobCounter
    sc.addSparkListener(jobs)

    // Set-up: generation and caching, repeated; the median counts.
    var data: Prepared = null
    val genTimes = (1 to SetupReps).map { _ =>
      if (data != null) data.unpersist()
      val t = System.nanoTime()
      data = workload.prepare(spark, seed).cache()
      secs(t)
    }
    val ds = data.scoring
    val inputSchema = data.input.schema.map(f => (f.name, f.dataType))
    val inputKeys   = data.input.select(ds.keyCol).collect().map(_.getLong(0)).sorted.toSeq
    val cfg         = CocoonConfig(keyCol = ds.keyCol, tableDesc = ds.name)

    println(f"[perfbench] ${workload.name} seed=$seed session_s=$sessionS%.3f " +
      s"generate_s=${genTimes.map(t => f"$t%.3f").mkString(",")}")

    val trace = if (traced) Some(new JobTrace) else None
    trace.foreach(sc.addSparkListener)
    val codegen = if (traced) Some(CodegenFallbacks.install()) else None
    var firstCounts: Option[(Long, Long, Long)] = None

    def pass(n: Int): Pass = {
      PerfbenchAccess.drainListeners(sc)
      val j0 = jobs.count
      trace.foreach(_.reset())
      val fallbacks0 = codegen.fold(0L)(_.count)
      val llm = new CountingLLM(new SimulatedLLM(), timed = trace.isDefined)

      val t = System.nanoTime()
      val res = CocoonPipeline.run(spark, data.input, llm, cfg)
      val out = res.cleaned.cache()
      out.count()
      val cleanS = secs(t)
      PerfbenchAccess.drainListeners(sc)
      val passJobs  = jobs.count - j0
      val spans     = trace.fold(Seq.empty[JobSpan])(_.spans)
      val fallbacks = codegen.fold(0L)(_.count) - fallbacks0

      val ts = System.nanoTime()
      val s  = Metrics.score(ds, "Cocoon", out, Metrics.table1Excluded)
      val scoreS = secs(ts)
      val counts = (s.changedCells, s.correctChanges, s.errorCells)
      println(f"[perfbench] ${workload.name} seed=$seed pass=$n traced=${trace.isDefined} " +
        f"clean_s=$cleanS%.3f spark_jobs=$passJobs llm_calls=${llm.totalCalls} llm_values=${llm.totalValues} " +
        s"changed=${counts._1} correct=${counts._2} errors=${counts._3}")

      val problems = mutable.ArrayBuffer.empty[String]
      if (out.schema.map(f => (f.name, f.dataType)) != inputSchema) problems += "schema changed"
      if (out.select(ds.keyCol).collect().map(_.getLong(0)).sorted.toSeq != inputKeys) problems += "row keys changed"
      if (counts._2 > counts._1) problems += "more correct than changed cells"
      if (seed == PinnedSeed && counts != workload.pinned) problems += s"counts $counts != pinned ${workload.pinned}"
      firstCounts.filter(_ != counts).foreach(p => problems += s"counts $counts != first pass $p")
      firstCounts = Some(counts)
      out.unpersist()
      Pass(cleanS, passJobs, llm, spans, fallbacks, res.script, s, scoreS, problems.toSeq)
    }

    val all = (1 to passes).map(pass)
    val failed = all.zipWithIndex.filter(_._1.problems.nonEmpty)
    failed.foreach { case (p, i) =>
      System.err.println(s"[perfbench] FAILED ${workload.name} seed=$seed pass=${i + 1}: ${p.problems.mkString("; ")}")
    }

    def med(f: Pass => Double): Double = median(all.map(f))
    val last = all.last
    val m = mutable.LinkedHashMap.empty[String, (Double, String)]
    m("clean_s")     = (med(_.cleanS), "s")
    m("spark_jobs")  = (med(_.jobs.toDouble), "count")
    m("llm_calls")   = (last.llm.totalCalls.toDouble, "count")
    m("llm_values")  = (last.llm.totalValues.toDouble, "count")
    m("setup_s")     = (sessionS + median(genTimes), "s")

    m("eval.wrong_cells") = ((last.scores.changedCells - last.scores.correctChanges).toDouble, "count")
    m("eval.f1")          = (last.scores.f1, "ratio")

    m("setup.generate_s") = (median(genTimes), "s")
    m("eval.score_s")     = (med(_.scoreS), "s")
    m("sql.script_kb")    = (last.script.getBytes("UTF-8").length / 1024.0, "KiB")
    m("sql.when_arms")    = ("\\bWHEN\\b".r.findAllMatchIn(last.script).size.toDouble, "count")
    CountingLLM.methods.foreach { k =>
      m(s"llm.$k.calls")  = (last.llm.calls(k).toDouble, "count")
      m(s"llm.$k.values") = (last.llm.values(k).toDouble, "count")
    }
    if (traced) {
      def split(p: JobSpan => Boolean): (Double, Double) = (
        med(_.spans.count(p).toDouble),
        med(_.spans.filter(p).map(_.millis).sum / 1e3),
      )
      val (pj, ps) = split(_.module.contains("profile"))
      m("profile.jobs")  = (pj, "count")
      m("profile.job_s") = (ps, "s")
      JobTrace.stages.foreach { st =>
        val (n, s) = split(_.stage.contains(st))
        m(s"core.$st.jobs")  = (n, "count")
        m(s"core.$st.job_s") = (s, "s")
      }
      m("trace.jobs")             = (med(_.spans.size.toDouble), "count")
      m("trace.attributed_share") =
        (med(p => p.spans.count(_.module.isDefined).toDouble / p.spans.size), "ratio")
      m("sql.codegen_fallbacks")  = (med(_.fallbacks.toDouble), "count")
      m("llm.wall_s")             = (med(_.llm.wallNanos / 1e9), "s")
      m("llm.cpu_s")              = (med(_.llm.cpuNanos / 1e9), "s")
      m("driver.self_s") =
        (med(p => p.cleanS - p.spans.map(_.millis).sum / 1e3 - p.llm.wallNanos / 1e9), "s")
    }

    val metrics = m.map { case (k, (v, u)) => s""""$k": {"value": $v, "unit": "$u"}""" }.mkString(", ")
    println(s"""{"correct": ${failed.isEmpty}, "attempted": ${all.size}, "failed": ${failed.size}, "metrics": {$metrics}}""")
    spark.stop()
  }
}
