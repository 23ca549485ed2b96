package repro.jobs

import repro.eval.Harness

/** Reproduces Table 1: P/R/F1 of all five systems on all five benchmarks,
  * under the paper's Table-1 rules (column-type and DMV cells excluded).
  *
  * Usage: spark-submit ... repro.jobs.Table1Job [datasetFilter] [systemFilter]
  */
object Table1Job {
  def main(args: Array[String]): Unit = {
    val spark = JobSession("cocoon-table1")
    val table   = Harness.table1.copy(datasets = Harness.table1.datasets.filter(d => args.lift(0).forall(d.contains)))
    val systems = Harness.allSystems().filter(s => args.lift(1).forall(s.name.toLowerCase.contains))
    val Seq(scores) = Harness.grid(spark, Seq(table), systems)
    scores.foreach(s => println("[table1] " + s.row))
    println()
    println("Table 1: data cleaning performance (coltype/DMV excluded)")
    println(Harness.formatTable(scores, table.datasets))
    spark.stop()
  }
}
