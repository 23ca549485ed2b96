package perfbench

import org.apache.spark.sql.{DataFrame, Row, SparkSession}

import repro.datasets.{BenchDataset, Flights}

/** One workload's inputs: the table the pipeline cleans, and the dataset its
  * output is scored against (same keys and columns).
  */
final case class Prepared(input: DataFrame, scoring: BenchDataset) {
  private def frames = Seq(input, scoring.dirty, scoring.clean, scoring.labels).distinct

  def cache(): Prepared = { frames.foreach(_.cache().count()); this }
  def unpersist(): Unit = frames.foreach(_.unpersist())
}

/** A workload: one Table-1 benchmark, dirty or clean, at paper size. The
  * workload seed reaches the generator shifted by the benchmark's place in
  * Table 1 (Hospital 0 … Movies 4), so seed 42 gives every benchmark its
  * default seed, the one EXPERIMENTS.md reports.
  */
sealed abstract class Workload(val name: String) {
  def prepare(spark: SparkSession, seed: Long): Prepared

  /** Table-1 (changedCells, correctChanges, errorCells) at workload seed 42;
    * other seeds are checked only for invariants.
    */
  def pinned: (Long, Long, Long)
}

object Workload {
  val all: Seq[Workload] = Seq(FlightsDirty, FlightsClean)

  def apply(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(s"unknown workload: $name"))

  /** Dirty Flights: the FD benchmark. Every stage detects; typo, pattern and
    * FD repairs rewrite, and ambiguous FD groups are left alone.
    */
  object FlightsDirty extends Workload("flights") {
    def prepare(spark: SparkSession, seed: Long): Prepared = {
      val ds = Flights.generate(spark, seed + 1)
      Prepared(ds.dirty, ds)
    }
    val pinned = (488L, 393L, 1202L)
  }

  /** The ground-truth clean Flights: detection does all of its work and
    * almost nothing is rewritten. Scored against itself, so every changed
    * cell is a false positive.
    */
  object FlightsClean extends Workload("flights-clean") {
    def prepare(spark: SparkSession, seed: Long): Prepared = {
      val ds = Flights.generate(spark, seed + 1)
      val noLabels = spark.createDataFrame(spark.sparkContext.emptyRDD[Row], ds.labels.schema)
      Prepared(ds.clean, ds.copy(dirty = ds.clean, labels = noLabels))
    }
    val pinned = (24L, 0L, 0L)
  }
}
