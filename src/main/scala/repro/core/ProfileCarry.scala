package repro.core

import scala.jdk.CollectionConverters._

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}
import org.apache.spark.unsafe.types.UTF8String
import repro.profile.{ColumnProfile, TableProfile, ValueCount}
import repro.util.SqlGen

/** The [[TableProfile]] of a table after a cleaning step, derived on the
  * driver from the profile before it, so the pipeline need not profile the
  * rewritten table again with Spark.
  *
  * Every rewrite Cocoon emits is a function of a cell's value (§2.1.1–§2.1.5)
  * or a single-lhs FD repair (§2.1.6), so a column's full (value, count)
  * table determines the rewritten column's profile:
  *   - a value map is pushed through the step's own SQL expression over a
  *     driver-local relation, which Spark evaluates without a job, so the
  *     carried values follow Spark's semantics exactly;
  *   - an FD repair moves the rows each arm counted from its bad value to
  *     its target, exact when no row can match two arms.
  *
  * The carry is undefined (`None`), and the table must be profiled again,
  * when the step has a row action, rewrites a non-string column or a
  * column whose profile is truncated, or is an FD repair with overlapping
  * arms.
  */
object ProfileCarry {

  def after(spark: SparkSession, df: DataFrame, profile: TableProfile, step: CleaningStep): Option[TableProfile] = {
    val strings = CleaningStep.stringColumns(df, Set.empty).toSet
    def complete(c: String) =
      strings(c) && profile.columns.get(c).exists(p => p.distinctCount == p.frequentValues.size)
    if (step.rows != KeepAllRows || !step.rewrites.forall(r => complete(r.column))) return None

    val carried = step.rewrites.map { r =>
      val before = valueCounts(profile(r.column))
      val after = r.rewrite match {
        case FdRepair(cases) =>
          Option.when(disjoint(cases))(before ++ cases.flatMap(k => Seq(k.badRhs -> -k.rows, k.target -> k.rows)))
        case rw =>
          val mapped = evalLocal(spark, r.column, before.map(_._1), CleaningStep.renderExpr(r.column, rw, SqlGen.ident))
          Some(mapped.map(_.getString(0)).zip(before.map(_._2)))
      }
      after.map(vs => r.column -> reprofile(spark, r.column, vs, profile.maxValues))
    }
    Option.when(carried.forall(_.isDefined))(profile.copy(columns = profile.columns ++ carried.flatten))
  }

  /** A column's full (value, count) table, nulls included. */
  private def valueCounts(p: ColumnProfile): Seq[(String, Long)] =
    (null: String, p.nullCount) +: p.frequentValues.map(v => v.value -> v.count)

  /** No row matches two arms: arms sharing a bad value share one lhs column
    * and differ in its value.
    */
  private def disjoint(cases: Seq[FdCase]): Boolean =
    cases.groupBy(_.badRhs).values.forall { arms =>
      arms.map(_.lhsCol).distinct.size == 1 && arms.map(_.lhsVal).distinct.size == arms.size
    }

  /** Spark's string order: UTF-8 bytes, not UTF-16 code units. */
  private val sparkOrder: Ordering[String] = (a, b) => UTF8String.fromString(a).compareTo(UTF8String.fromString(b))

  /** The profile of a column holding `counts` (value, rows), as
    * [[TableProfile.of]] would measure it: values merged, ranked by count
    * descending then value, numbers parsed by Spark's `TRY_CAST`, and NaN
    * above every other number as in Spark's `min`/`max`.
    */
  private def reprofile(spark: SparkSession, name: String, counts: Seq[(String, Long)], maxValues: Int): ColumnProfile = {
    val nulls = counts.collect { case (null, n) => n }.sum
    val values = counts
      .filter(_._1 != null)
      .groupMapReduce(_._1)(_._2)(_ + _)
      .collect { case (v, n) if n > 0 => ValueCount(v, n) }
      .toSeq
      .sorted(Ordering.by((v: ValueCount) => (-v.count, v.value))(Ordering.Tuple2(Ordering.Long, sparkOrder)))
    val nums = evalLocal(spark, "v", values.map(_.value), "TRY_CAST(`v` AS DOUBLE)")
      .zip(values)
      .collect { case (r, v) if !r.isNullAt(0) => (r.getDouble(0), v.count) }
    val nonNull = values.map(_.count).sum
    ColumnProfile(
      name = name,
      rowCount = nulls + nonNull,
      nullCount = nulls,
      distinctCount = values.size,
      frequentValues = values.take(maxValues),
      minNumeric = nums.map(_._1).minOption(Ordering.Double.TotalOrdering),
      maxNumeric = nums.map(_._1).maxOption(Ordering.Double.TotalOrdering),
      numericParseRate = if (nonNull == 0) 0.0 else nums.map(_._2).sum.toDouble / nonNull,
    )
  }

  /** `expr` over `values` as the one string column `col` of a local
    * relation. Spark folds a projection over a local relation on the driver,
    * so this starts no job.
    */
  private def evalLocal(spark: SparkSession, col: String, values: Seq[String], expr: String): Seq[Row] =
    if (values.isEmpty) Seq.empty
    else
      spark
        .createDataFrame(values.map(Row(_)).asJava, StructType(Seq(StructField(col, StringType))))
        .selectExpr(expr)
        .collect()
        .toSeq
}
