package repro.jobs

import repro.eval.Harness

/** Reproduces Table 3 (Appendix B): Hospital and Movies scored with
  * column-type and DMV cells *included* as errors.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("cocoon-table3")
    val Seq(scores) = Harness.grid(spark, Seq(Harness.table3))
    scores.foreach(s => println("[table3] " + s.row))
    println()
    println("Table 3: performance with column-type and DMV errors included")
    println(Harness.formatTable(scores, Harness.table3.datasets))
    spark.stop()
  }
}
