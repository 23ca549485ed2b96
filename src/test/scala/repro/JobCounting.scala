package repro

import java.util.concurrent.ConcurrentLinkedQueue
import java.util.concurrent.atomic.AtomicLong

import scala.jdk.CollectionConverters._

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerEvent, SparkListenerJobStart, SparkListenerTaskStart}
import org.apache.spark.sql.execution.{QueryExecution, SparkPlan}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionStart
import org.apache.spark.sql.util.QueryExecutionListener

/** Counts the Spark jobs, tasks and SQL executions a block of code starts
  * on the shared session, and captures the executed plans of the queries it
  * runs. None of these depends on the hardware, except a task count over an
  * input whose partitions follow the core count. The listeners are added on
  * first use and stay for the JVM, so a memo computed by one suite is
  * measured the same way as a suite's own block.
  */
object JobCounting {

  private val jobs       = new AtomicLong
  private val tasks      = new AtomicLong
  private val executions = new AtomicLong
  private val plans      = new ConcurrentLinkedQueue[SparkPlan]
  @volatile private var capturing = false

  private lazy val installed: Unit = {
    val spark = SparkSpec.shared
    spark.sparkContext.addSparkListener(new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskStart(e: SparkListenerTaskStart): Unit = tasks.incrementAndGet()
      override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
        case _: SparkListenerSQLExecutionStart => executions.incrementAndGet()
        case _                                 => ()
      }
    })
    spark.listenerManager.register(new QueryExecutionListener {
      override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
        if (capturing) plans.add(qe.executedPlan)
      override def onFailure(funcName: String, qe: QueryExecution, error: Exception): Unit = ()
    })
  }

  /** `body`'s result and the number of Spark jobs it started. */
  def countingJobs[A](body: => A): (A, Long) = counting(jobs)(body)

  /** `body`'s result and the number of Spark tasks it started. */
  def countingTasks[A](body: => A): (A, Long) = counting(tasks)(body)

  /** `body`'s result and the number of SQL executions it started: every
    * query run and every command, such as registering a temp view, whether
    * or not it starts a job.
    */
  def countingExecutions[A](body: => A): (A, Long) = counting(executions)(body)

  /** `body`'s result and the executed plans of the queries it ran. */
  def executedPlans[A](body: => A): (A, Seq[SparkPlan]) = {
    drained(plans.clear())
    capturing = true
    try { val a = body; drained(()); (a, plans.asScala.toSeq) }
    finally { capturing = false; plans.clear() }
  }

  /** The nodes of `plans` that `pf` matches, adaptive query stages included. */
  def collectNodes[B](plans: Seq[SparkPlan])(pf: PartialFunction[SparkPlan, B]): Seq[B] =
    plans.flatMap(Plans.collect(_)(pf))

  private def counting[A](counter: AtomicLong)(body: => A): (A, Long) = {
    val before = drained(counter.get)
    val a = body
    (a, drained(counter.get) - before)
  }

  /** `read` once every event posted so far has reached the listeners. */
  private def drained[A](read: => A): A = {
    installed
    ListenerBusAccess.drain(SparkSpec.shared.sparkContext)
    read
  }

  /** Walks executed plans into their adaptive query stages. */
  private object Plans extends AdaptiveSparkPlanHelper
}
