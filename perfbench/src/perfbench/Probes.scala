package perfbench

import java.lang.management.ManagementFactory
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable

import org.apache.logging.log4j.{Level, LogManager}
import org.apache.logging.log4j.core.{LogEvent, LoggerContext}
import org.apache.logging.log4j.core.appender.AbstractAppender
import org.apache.logging.log4j.core.config.{LoggerConfig, Property}
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart

import repro.llm._
import repro.profile.ValueCount

/** Calls and values sent per prompt method. A value is one string or number
  * placed in the prompt: a profiled value with its count, an unusual value, a
  * min/max bound or an FD group's lhs value. Column names and row counts are
  * not values. With `timed`, also the wall and CPU time spent inside calls.
  */
final class CountingLLM(inner: LLMClient, timed: Boolean) extends LLMClient {
  val calls  = mutable.LinkedHashMap(CountingLLM.methods.map(_ -> 0L): _*)
  val values = mutable.LinkedHashMap(CountingLLM.methods.map(_ -> 0L): _*)
  var wallNanos = 0L
  var cpuNanos  = 0L
  private val mx = ManagementFactory.getThreadMXBean

  private def count[A](method: String, nValues: Int)(call: => A): A = {
    calls(method) += 1
    values(method) += nValues
    if (!timed) call
    else {
      val w = System.nanoTime(); val c = mx.getCurrentThreadCpuTime
      try call
      finally { wallNanos += System.nanoTime() - w; cpuNanos += mx.getCurrentThreadCpuTime - c }
    }
  }

  def totalCalls: Long  = calls.values.sum
  def totalValues: Long = values.values.sum

  override def reviewStringOutliers(column: String, vs: Seq[ValueCount]): StringReview =
    count("reviewStringOutliers", vs.size)(inner.reviewStringOutliers(column, vs))
  override def proposeStringMapping(column: String, unusual: Seq[String], context: Seq[ValueCount]): Map[String, String] =
    count("proposeStringMapping", unusual.size + context.size)(inner.proposeStringMapping(column, unusual, context))
  override def reviewPatterns(column: String, vs: Seq[ValueCount]): Option[PatternReview] =
    count("reviewPatterns", vs.size)(inner.reviewPatterns(column, vs))
  override def identifyDmv(column: String, vs: Seq[ValueCount]): Seq[String] =
    count("identifyDmv", vs.size)(inner.identifyDmv(column, vs))
  override def suggestType(column: String, currentType: String, vs: Seq[ValueCount]): Option[TypeSuggestion] =
    count("suggestType", vs.size)(inner.suggestType(column, currentType, vs))
  override def reviewNumericRange(column: String, min: Double, max: Double): Option[(Double, Double)] =
    count("reviewNumericRange", 2)(inner.reviewNumericRange(column, min, max))
  override def reviewFdMeaningful(lhs: String, rhs: String): Boolean =
    count("reviewFdMeaningful", 0)(inner.reviewFdMeaningful(lhs, rhs))
  override def resolveFdGroup(lhs: String, rhs: String, lhsValue: String, rhsValues: Seq[ValueCount]): Option[String] =
    count("resolveFdGroup", 1 + rhsValues.size)(inner.resolveFdGroup(lhs, rhs, lhsValue, rhsValues))
  override def duplicationAcceptable(tableDesc: String, duplicateRows: Long, totalRows: Long): Boolean =
    count("duplicationAcceptable", 0)(inner.duplicationAcceptable(tableDesc, duplicateRows, totalRows))
  override def shouldBeUnique(column: String, uniqueRatio: Double): Boolean =
    count("shouldBeUnique", 0)(inner.shouldBeUnique(column, uniqueRatio))
}

object CountingLLM {
  val methods: Seq[String] = Seq(
    "reviewStringOutliers", "proposeStringMapping", "reviewPatterns", "identifyDmv", "suggestType",
    "reviewNumericRange", "reviewFdMeaningful", "resolveFdGroup", "duplicationAcceptable", "shouldBeUnique",
  )
}

/** Counts jobs started; the only listener of a timed run. */
final class JobCounter extends SparkListener {
  private val n = new AtomicLong
  def count: Long = n.get
  override def onJobStart(e: SparkListenerJobStart): Unit = n.incrementAndGet()
}

/** One finished job: the `repro` module and pipeline stage it ran for, and
  * its duration from job start to job end.
  */
final case class JobSpan(module: Option[String], stage: Option[String], millis: Long)

/** Traced runs only: attributes every job to the code that caused it.
  *
  * Spark runs SQL jobs on pooled threads, so a job's own call site no longer
  * shows its caller. The SQL execution's start event does, in its `details`
  * (the long call site, taken on the calling thread); jobs carry the id of
  * their root execution. A job outside any execution falls back to its first
  * stage's call site. The module is the package of the first `repro.` frame;
  * the stage is the first frame in one of the eight stage files, or `apply`
  * when the job comes from the pipeline's own apply and checkpoint code.
  */
final class JobTrace extends SparkListener {
  private val execDetails = mutable.Map.empty[Long, String]
  private val open        = mutable.Map.empty[Int, (Long, Option[String], Option[String])]
  private val done        = mutable.ArrayBuffer.empty[JobSpan]

  def reset(): Unit = synchronized { done.clear() }
  def spans: Seq[JobSpan] = synchronized { done.toVector }

  override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
    case s: SparkListenerSQLExecutionStart => synchronized { execDetails(s.executionId) = s.details }
    case _                                 =>
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val props = Option(e.properties)
    val execId = props.flatMap { p =>
      Option(p.getProperty("spark.sql.execution.root.id")).orElse(Option(p.getProperty("spark.sql.execution.id")))
    }
    val details = execId
      .flatMap(id => execDetails.get(id.toLong))
      .orElse(e.stageInfos.headOption.map(_.details))
      .getOrElse("")
    val (module, stage) = JobTrace.attribute(details)
    open(e.jobId) = (e.time, module, stage)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    open.remove(e.jobId).foreach { case (t0, m, s) => done += JobSpan(m, s, e.time - t0) }
  }
}

object JobTrace {
  private val stageFiles = Seq(
    "StringOutliers.scala"  -> "string-outliers",
    "PatternOutliers.scala" -> "pattern-outliers",
    "Dmv.scala"             -> "dmv",
    "ColumnType.scala"      -> "column-type",
    "NumericOutliers.scala" -> "numeric-outliers",
    "FunctionalDeps.scala"  -> "functional-deps",
    "Duplication.scala"     -> "duplication",
    "Uniqueness.scala"      -> "uniqueness",
  )
  private val stageOfFile = stageFiles.toMap
  private val applyFiles  = Set("CocoonPipeline.scala", "CleaningStep.scala")
  val stages: Seq[String] = stageFiles.map(_._2) :+ "apply"

  /** "repro.profile.Profiler$.profileColumn(Profiler.scala:57)" → (class, file). */
  private def parse(frame: String): (String, String) = {
    val open   = frame.indexOf('(')
    val method = if (open < 0) frame else frame.substring(0, open)
    val file   = if (open < 0) "" else frame.substring(open + 1).takeWhile(c => c != ':' && c != ')')
    (method.substring(0, math.max(0, method.lastIndexOf('.'))), file)
  }

  def attribute(details: String): (Option[String], Option[String]) = {
    val frames = details.split('\n').iterator.map(_.trim).filter(_.startsWith("repro.")).map(parse).toVector
    val module = frames.headOption.map { case (cls, _) => cls.substring(0, cls.lastIndexOf('.')).stripPrefix("repro.") }
    val stage = frames.collectFirst { case (_, f) if stageOfFile.contains(f) => stageOfFile(f) }
      .orElse(frames.collectFirst { case (_, f) if applyFiles(f) => "apply" })
    (module, stage)
  }
}

/** Traced runs only: counts WARN events of the whole-stage codegen logger,
  * which logs one each time generated code fails to compile and Spark falls
  * back to interpreted execution.
  */
final class CodegenFallbacks private () extends AbstractAppender("perfbench-codegen", null, null, true, Property.EMPTY_ARRAY) {
  private val n = new AtomicLong
  def count: Long = n.get
  override def append(e: LogEvent): Unit = if (e.getLevel.isMoreSpecificThan(Level.WARN)) n.incrementAndGet()
}

object CodegenFallbacks {
  val loggerName = "org.apache.spark.sql.execution.WholeStageCodegenExec"

  def install(): CodegenFallbacks = {
    val app = new CodegenFallbacks()
    app.start()
    val ctx = LogManager.getContext(false).asInstanceOf[LoggerContext]
    val cfg = ctx.getConfiguration
    cfg.addAppender(app)
    val lc = new LoggerConfig(loggerName, Level.WARN, false)
    lc.addAppender(app, Level.WARN, null)
    cfg.addLogger(loggerName, lc)
    ctx.updateLoggers()
    app
  }
}
