package repro

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.ListenerBusAccess
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block of code starts, with a listener registered
  * for the suite's lifetime. Job count does not depend on the hardware.
  */
trait JobCounting extends SparkSpec {

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
  def countingJobs[A](body: => A): (A, Long) = {
    ListenerBusAccess.drain(spark.sparkContext)
    val before = jobs.get
    val a = body
    ListenerBusAccess.drain(spark.sparkContext)
    (a, jobs.get - before)
  }
}
