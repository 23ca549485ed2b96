package repro

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.util.QueryExecutionListener

/** Counts the Spark jobs a block of code starts, and the shuffle exchanges
  * in the executed plans of the queries it runs, with listeners registered
  * for the suite's lifetime. Neither depends on the hardware.
  */
trait JobCounting extends SparkSpec {

  private val jobs = new AtomicLong
  private val jobCounter = new SparkListener {
    override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
  }

  private val exchanges = new AtomicLong
  private val exchangeCounter = new QueryExecutionListener {
    override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
      exchanges.addAndGet(JobCounting.Plans.collect(qe.executedPlan) { case e: ShuffleExchangeExec => e }.size.toLong)
    override def onFailure(funcName: String, qe: QueryExecution, error: Exception): Unit = ()
  }

  override def beforeAll(): Unit = {
    super.beforeAll()
    spark.sparkContext.addSparkListener(jobCounter)
    spark.listenerManager.register(exchangeCounter)
  }

  override def afterAll(): Unit = {
    spark.listenerManager.unregister(exchangeCounter)
    spark.sparkContext.removeSparkListener(jobCounter)
    super.afterAll()
  }

  /** `body`'s result and the number of Spark jobs it started. */
  def countingJobs[A](body: => A): (A, Long) = counting(jobs)(body)

  /** `body`'s result and the number of shuffle exchanges in the executed
    * plans, adaptive query stages included, of the queries it ran.
    */
  def countingExchanges[A](body: => A): (A, Long) = counting(exchanges)(body)

  private def counting[A](counter: AtomicLong)(body: => A): (A, Long) = {
    ListenerBusAccess.drain(spark.sparkContext)
    val before = counter.get
    val a = body
    ListenerBusAccess.drain(spark.sparkContext)
    (a, counter.get - before)
  }
}

object JobCounting {

  /** Walks executed plans into their adaptive query stages. */
  private object Plans extends AdaptiveSparkPlanHelper
}
