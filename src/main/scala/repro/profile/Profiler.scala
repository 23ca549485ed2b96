package repro.profile

import org.apache.spark.sql.{Column, DataFrame, Row, functions => F}
import org.apache.spark.sql.catalyst.expressions.Cast
import org.apache.spark.sql.types.{ByteType, DataType, DoubleType, IntegerType, LongType, ShortType, StringType, StructField}
import org.apache.spark.unsafe.types.UTF8String
import repro.util.SqlGen

/** A value with its occurrence count, from a column's frequency profile. */
final case class ValueCount(value: String, count: Long)

object ValueCount {

  /** Spark's string order: UTF-8 bytes, not UTF-16 code units. */
  private val sparkOrder: Ordering[String] = (a, b) => UTF8String.fromString(a).compareTo(UTF8String.fromString(b))

  /** Most frequent first, ties by value in Spark's string order: the order of
    * a column's frequent values, of an FD group's rhs values and of the
    * violating groups an FD score keeps.
    */
  val ranked: Ordering[ValueCount] = (a, b) =>
    if (a.count != b.count) java.lang.Long.compare(b.count, a.count) else sparkOrder.compare(a.value, b.value)
}

/** Profile of a single column (paper §2: "Cocoon leverages traditional
  * statistical methods to profile the tables ... and includes these in the
  * prompt").
  */
final case class ColumnProfile(
    name: String,
    rowCount: Long,
    nullCount: Long,
    distinctCount: Long,
    frequentValues: Seq[ValueCount],
    minNumeric: Option[Double],
    maxNumeric: Option[Double],
    numericParseRate: Double,
) {
  def uniqueRatio: Double = if (rowCount == 0) 0.0 else distinctCount.toDouble / rowCount
}

object ColumnProfile {

  /** The profile of column `name` from its (value, rows, number) table, one
    * entry per distinct value, the null value included: every non-null value
    * in [[ValueCount.ranked]] order, and the
    * numbers' min and max (NaN above every other number, as in Spark's `min`
    * and `max`) and parse rate over the non-null rows.
    */
  def of(name: String, values: Iterable[(String, Long, Option[Double])]): ColumnProfile = {
    val (nulls, present) = values.partition(_._1 == null)
    val nullCount = nulls.map(_._2).sum
    val nonNull   = present.map(_._2).sum
    val nums      = present.collect { case (_, n, Some(d)) => (d, n) }
    ColumnProfile(
      name = name,
      rowCount = nullCount + nonNull,
      nullCount = nullCount,
      distinctCount = present.size,
      frequentValues = present.map { case (v, n, _) => ValueCount(v, n) }.toSeq.sorted(ValueCount.ranked),
      minNumeric = nums.map(_._1).minOption(Ordering.Double.TotalOrdering),
      maxNumeric = nums.map(_._1).maxOption(Ordering.Double.TotalOrdering),
      numericParseRate = if (nonNull == 0) 0.0 else nums.map(_._2).sum.toDouble / nonNull,
    )
  }
}

/** Profile of one table state: a [[ColumnProfile]] for every column, each
  * keeping all its values in [[ValueCount.ranked]] order, and the joint
  * counts of the column pairs it was asked to count. A stage reads the
  * prefix it needs.
  */
final case class TableProfile(
    rowCount: Long,
    columns: Map[String, ColumnProfile],
    pairs: Map[(String, String), TableProfile.Joint] = Map.empty,
) {

  def apply(col: String): ColumnProfile = columns(col)

  /** The `n` most frequent non-null values of `col`. */
  def frequentValues(col: String, n: Int): Seq[ValueCount] = columns(col).frequentValues.take(n)

  /** The rows of each (`lhs` value, `rhs` value), over the rows where
    * neither is NULL. The pair must have been counted, in either order.
    */
  def joint(lhs: String, rhs: String): TableProfile.Joint =
    pairs.get((lhs, rhs))
      .orElse(pairs.get((rhs, lhs)).map(_.map { case ((r, l), n) => (l, r) -> n }))
      .getOrElse(throw new NoSuchElementException(s"the profile counted no pair of $lhs and $rhs"))
}

object TableProfile {

  /** The rows of each (lhs value, rhs value) of a column pair, neither NULL. */
  type Joint = Map[(String, String), Long]

  /** Profile every column, and count the joint values of each of `pairs`,
    * with one query over the melted table: a count of each (column, value)
    * and each (pair, lhs value, rhs value) with neither side NULL, which the
    * driver collects and ranks into each column's profile with
    * [[ColumnProfile.of]]. A pair is counted once in whichever order it comes
    * first: joint counts serve both directions. Every distinct value reaches
    * the driver and stays in the profile. The melted rows are coalesced into
    * one partition before the group-by, which then reads them without an
    * exchange: the query is one Spark job. A string column's numeric view is
    * its value's `TRY_CAST` to double, taken once per distinct value after
    * the group-by; any other column's is the typed `TRY_CAST` of each cell,
    * NULL where Spark cannot cast the type to double (DATE, BINARY, nested
    * types).
    */
  def of(df: DataFrame, pairs: Seq[(String, String)] = Seq.empty): TableProfile = {
    val cols = df.columns.toSeq
    if (cols.isEmpty) return TableProfile(df.count(), Map.empty)
    val counted = pairs.distinctBy { case (l, r) => Set(l, r) }

    // One row per column, its slot its position, with the value as text
    // and, outside string columns, as a number; then one per pair, in the
    // slots after the columns', with both values as text.
    // try_cast: under Spark 4 ANSI semantics a plain cast on malformed
    // strings throws instead of yielding NULL.
    val fields = df.schema.fields.toSeq
    val noText = F.lit(null).cast("string")
    val columnRows = fields.zipWithIndex.map { case (f, i) => Seq(F.lit(i), text(f.name), noText, typedNumber(f)) }
    val pairRows = counted.zipWithIndex.map { case ((l, r), j) => Seq(F.lit(cols.size + j), text(l), text(r), noNumber) }
    val melted = df.select(
      F.stack(F.lit(cols.size + counted.size) +: (columnRows ++ pairRows).flatten: _*).as(Seq("slot", "value", "rhs", "typed"))
    )
    val textSlots = fields.indices.filter(i => fields(i).dataType.isInstanceOf[StringType])
    val rows = melted
      .filter(F.col("slot") < cols.size || (F.col("value").isNotNull && F.col("rhs").isNotNull))
      .coalesce(1)
      .groupBy("slot", "value", "rhs")
      .agg(
        F.count(F.lit(1)).as("n"),
        F.when(F.col("slot").isin(textSlots: _*), F.col("value").try_cast("double")).otherwise(F.max("typed")).as("num"),
      )
      .collect()
      .groupBy(_.getInt(0))

    def slot(i: Int) = rows.getOrElse(i, Array.empty[Row])
    val profiles = cols.zipWithIndex.map { case (c, i) =>
      c -> ColumnProfile.of(c, slot(i).map(r => (r.getString(1), r.getLong(3), Option(r.get(4)).map(_.asInstanceOf[Double]))))
    }
    val joints = counted.zipWithIndex.map { case (p, j) =>
      p -> slot(cols.size + j).map(r => (r.getString(1), r.getString(2)) -> r.getLong(3)).toMap
    }
    TableProfile(profiles.head._2.rowCount, profiles.toMap, joints.toMap)
  }

  /** A column by its name, quoted: a name may hold a backtick, a dot or a space. */
  private def column(name: String): Column = F.col(SqlGen.ident(name))

  private def text(name: String): Column = column(name).cast("string")

  private val noNumber = F.lit(null).cast("double")

  /** A non-string column's cells as doubles: NULL for a string column, whose
    * values are cast once each after the group-by, and for a type Spark
    * cannot cast to double.
    */
  private def typedNumber(f: StructField): Column =
    if (f.dataType.isInstanceOf[StringType] || !Cast.canTryCast(f.dataType, DoubleType)) noNumber
    else column(f.name).try_cast("double")
}

/** A scored single-attribute FD candidate lhs → rhs (§2.1.6, after Baran).
  * `strength` is the share of rows (with both sides non-null) agreeing with
  * their lhs group's plurality rhs value — 1.0 means the FD holds exactly,
  * and a few corrupted cells per group only dent it proportionally (an
  * entropy-style measure, after [Beskales et al.]). `violatingGroups` counts
  * lhs groups with more than one rhs value; `groups` lists the largest of
  * them (by size, ties by lhs value, as [[ValueCount.ranked]] orders them),
  * in lhs order, each with its rhs values in [[ValueCount.ranked]] order.
  */
final case class FdScore(
    lhs: String,
    rhs: String,
    strength: Double,
    violatingGroups: Long,
    groups: Seq[(String, Seq[ValueCount])],
)

/** Statistical error-detection substrate beyond the [[TableProfile]].
  *
  * FD scores rank the joint counts the profile took, with no query; the
  * duplicate-row count is one Spark aggregation at most. This is the
  * "statistical detection" half of every Cocoon issue pipeline; the semantic
  * half consumes these summaries via the simulated LLM.
  */
object Profiler {

  /** Number of fully duplicated rows beyond the first occurrence (§2.1.7).
    * It is 0, with no Spark job, when the profile shows a column whose values
    * are pairwise distinct (at most one null); otherwise one `DISTINCT` count
    * over the table coalesced into one partition: one job, no exchange.
    */
  def duplicateRowCount(df: DataFrame, profile: TableProfile): Long = {
    val distinctColumn = df.schema.fields.exists { f =>
      comparesAsText(f.dataType) && profile.columns.get(f.name).exists { p =>
        p.distinctCount + (if (p.nullCount > 0) 1 else 0) == p.rowCount
      }
    }
    if (distinctColumn) 0L else profile.rowCount - df.coalesce(1).distinct().count()
  }

  /** Types whose profiled text is equal exactly when `DISTINCT` finds the
    * values equal. Not floating point (`-0.0` and `0.0` print apart but
    * compare equal), not collated strings, not nested types (their text is
    * ambiguous).
    */
  private def comparesAsText(t: DataType): Boolean =
    t == StringType || Seq(ByteType, ShortType, IntegerType, LongType).contains(t)

  /** Score every (lhs, rhs) pair from the joint counts the profile took —
    * the single-attribute partition refinement of TANE [Huhtala et al.] —
    * keeping up to `maxGroups` violating groups per pair. Returns one
    * [[FdScore]] per pair, in order, and runs no query: the profile must have
    * counted every pair ([[TableProfile.joint]]).
    */
  def scoreFds(profile: TableProfile, pairs: Seq[(String, String)], maxGroups: Int): Seq[FdScore] =
    pairs.map { case (lhs, rhs) =>
      // Each lhs group's rhs values, most frequent first: the head is its plurality.
      val groups = profile.joint(lhs, rhs).toSeq
        .groupMap(_._1._1) { case ((_, rv), n) => ValueCount(rv, n) }
        .map { case (lv, vs) => lv -> vs.sorted(ValueCount.ranked) }
      val total = groups.values.map(_.map(_.count).sum).sum
      val agree = groups.values.map(_.head.count).sum
      val violating = groups.filter(_._2.size > 1)
      // The largest violating groups, size ties by lhs value, listed in lhs order.
      val kept = violating.map { case (lv, vs) => ValueCount(lv, vs.map(_.count).sum) }.toSeq.sorted(ValueCount.ranked).take(maxGroups)
      val strength = if (total == 0) 0.0 else agree.toDouble / total
      FdScore(lhs, rhs, strength, violating.size.toLong, kept.map(_.value).sorted.map(lv => lv -> groups(lv)))
    }
}
