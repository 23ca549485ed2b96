package repro.datasets

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import scala.collection.mutable
import scala.util.Random

/** One benchmark: a dirty table, its ground-truth clean version, and
  * cell-level error labels.
  *
  * `labels` has schema (row_id LONG, column STRING, error_type STRING) and
  * covers exactly the cells where dirty ≠ clean (null-safe). Error types:
  * typo, fd, inconsistency, coltype, dmv, misplacement. `fdConstraints` are
  * the ground-truth denial constraints handed to HoloClean, as in the paper.
  */
final case class BenchDataset(
    name: String,
    dirty: DataFrame,
    clean: DataFrame,
    labels: DataFrame,
    dataColumns: Seq[String],
    fdConstraints: Seq[(String, String)],
    keyCol: String = "row_id",
) {

  /** Labelled cells per error type (the paper's Table 2). */
  def errorTypeCounts: Map[String, Long] =
    labels.groupBy("error_type").count().collect().map(r => r.getString(0) -> r.getLong(1)).toMap
}

object BenchDataset {

  /** A table of the LONG key `keyCol`, holding `ids`, and the string
    * `columns`, holding `cells` row by row, in 4 partitions: how a generated
    * benchmark and a baseline's repaired snapshot become DataFrames.
    */
  def frame(spark: SparkSession, keyCol: String, ids: Array[Long], columns: Seq[String], cells: Array[Array[String]]): DataFrame = {
    val schema = StructType(
      StructField(keyCol, LongType, nullable = false) +: columns.map(StructField(_, StringType, nullable = true))
    )
    val rows = ids.indices.map(r => Row.fromSeq(ids(r) +: cells(r).toSeq))
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 4), schema)
  }

  /** Column-major builder for a synthetic dirty/clean pair. Fill ground truth
    * with [[TableBuilder.setBoth]]; introduce an error with
    * [[TableBuilder.setCell]], which records the label, usually from inside
    * [[TableBuilder.inject]]. Deterministic given the caller's seeded Random.
    */
  final class TableBuilder(val columns: Seq[String], val n: Int) {
    val truth: Array[Array[String]] = Array.ofDim[String](n, columns.size)
    val dirty: Array[Array[String]] = Array.ofDim[String](n, columns.size)
    private val labels  = mutable.ListBuffer.empty[(Long, String, String)]
    private val labeled = mutable.Set.empty[(Int, Int)]
    private val colIdx  = columns.zipWithIndex.toMap

    def ci(c: String): Int = colIdx(c)

    def setBoth(r: Int, c: String, v: String): Unit = {
      truth(r)(ci(c)) = v; dirty(r)(ci(c)) = v
    }

    def cleanValue(r: Int, c: String): String = truth(r)(ci(c))
    def dirtyValue(r: Int, c: String): String = dirty(r)(ci(c))
    def isLabeled(r: Int, c: String): Boolean = labeled((r, ci(c)))

    /** Set a cell's dirty and clean values; label it if they differ.
      * Returns true iff a label was recorded.
      */
    def setCell(r: Int, c: String, dirtyV: String, cleanV: String, errType: String): Boolean = {
      val i = ci(c)
      dirty(r)(i) = dirtyV
      truth(r)(i) = cleanV
      val differs = (dirtyV == null) != (cleanV == null) || (dirtyV != null && dirtyV != cleanV)
      if (differs && !labeled((r, i))) {
        labeled += ((r, i))
        labels += ((r.toLong, c, errType))
      }
      differs
    }

    /** Offer `rows`, shuffled by `rnd`, to `tryRow` in that order until `k`
      * of them took an error (`tryRow` returned true) or none are left.
      */
    def inject(k: Int, rnd: Random, rows: Range = 0 until n)(tryRow: Int => Boolean): Unit = {
      val it = rnd.shuffle(rows.toList).iterator
      var taken = 0
      while (taken < k && it.hasNext) if (tryRow(it.next())) taken += 1
    }

    def build(spark: SparkSession, name: String, fds: Seq[(String, String)]): BenchDataset = {
      def df(arr: Array[Array[String]]): DataFrame = frame(spark, "row_id", Array.tabulate(n)(_.toLong), columns, arr)
      val labelSchema = StructType(Seq(
        StructField("row_id", LongType, nullable = false),
        StructField("column", StringType, nullable = false),
        StructField("error_type", StringType, nullable = false),
      ))
      val labelRows = labels.toSeq.map { case (r, c, t) => Row(r, c, t) }
      val labelDf = spark.createDataFrame(spark.sparkContext.parallelize(labelRows, 2), labelSchema)
      BenchDataset(name, df(dirty), df(truth), labelDf, columns, fds)
    }
  }
}
