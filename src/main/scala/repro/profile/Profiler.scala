package repro.profile

import org.apache.spark.sql.{Column, DataFrame, functions => F}
import org.apache.spark.sql.catalyst.expressions.Cast
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.types.{ByteType, DataType, DoubleType, IntegerType, LongType, ShortType, StringType, StructField}

/** A value with its occurrence count, from a column's frequency profile. */
final case class ValueCount(value: String, count: Long)

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
  def nullRate: Double     = if (rowCount == 0) 0.0 else nullCount.toDouble / rowCount
  def uniqueRatio: Double  = if (rowCount == 0) 0.0 else distinctCount.toDouble / rowCount
}

/** Profile of one table state: a [[ColumnProfile]] for every column, each
  * keeping its `maxValues` most frequent values (most frequent first,
  * ties by value). A stage reads the prefix it needs.
  */
final case class TableProfile(rowCount: Long, columns: Map[String, ColumnProfile], maxValues: Int) {

  def apply(col: String): ColumnProfile = columns(col)

  /** The `n` most frequent non-null values of `col`. */
  def frequentValues(col: String, n: Int): Seq[ValueCount] = {
    require(n <= maxValues, s"profile keeps $maxValues values per column; $n requested")
    columns(col).frequentValues.take(n)
  }
}

object TableProfile {

  /** Values kept per column by default: the longest prefix a stage reads. */
  val MaxValues = 3000

  /** Profile every column with one query over the melted table: group by
    * (column, value), then rank each column's values and aggregate its counts
    * in Spark, so only the top `maxValues` values per column reach the driver.
    * The melted rows are coalesced into one partition before the group-by,
    * which the group-by and every window then read without an exchange: the
    * query is one Spark job. A string column's numeric view is its value's
    * `TRY_CAST` to double, taken once per distinct value after the group-by;
    * any other column's is the typed `TRY_CAST` of each cell, NULL where
    * Spark cannot cast the type to double (DATE, BINARY, nested types).
    */
  def of(df: DataFrame, maxValues: Int = MaxValues): TableProfile = {
    val cols = df.columns.toSeq
    if (cols.isEmpty) return TableProfile(df.count(), Map.empty, maxValues)

    // Each value as text and, outside string columns, as a number.
    // try_cast: under Spark 4 ANSI semantics a plain cast on malformed
    // strings throws instead of yielding NULL.
    val fields = df.schema.fields.toSeq
    val melted = df.select(
      F.stack(F.lit(cols.size) +: fields.flatMap(f => Seq(F.lit(f.name), F.col(f.name).cast("string"), typedNumber(f))): _*)
        .as(Seq("column", "value", "typed"))
    )
    val textCols = fields.collect { case f if f.dataType.isInstanceOf[StringType] => f.name }
    val v = F.col("value"); val n = F.col("n"); val num = F.col("num")
    // One sort: the column aggregates span the whole ranked partition.
    val byRank = Window.partitionBy("column").orderBy(v.isNull, n.desc, v.asc)
    val byCol  = byRank.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    val rows = melted
      .coalesce(1)
      .groupBy("column", "value")
      .agg(
        F.count(F.lit(1)).as("n"),
        F.when(F.col("column").isin(textCols: _*), v.try_cast("double")).otherwise(F.max("typed")).as("num"),
      )
      .select(
        F.col("column"), v, n,
        F.sum(n).over(byCol).as("rows"),
        F.sum(F.when(v.isNull, n).otherwise(0L)).over(byCol).as("nulls"),
        F.count(v).over(byCol).as("distinct"),
        F.min(num).over(byCol).as("minn"),
        F.max(num).over(byCol).as("maxn"),
        F.sum(F.when(v.isNotNull && num.isNotNull, n).otherwise(0L)).over(byCol).as("numOk"),
        // Non-null values first, so rank 1 always exists and carries the
        // column's aggregates even when the column is all null.
        F.row_number().over(byRank).as("rank"),
      )
      .filter(F.col("rank") <= math.max(maxValues, 1))
      .collect()
      .groupBy(_.getString(0))

    val profiles = cols.map { c =>
      val ranked = rows.getOrElse(c, Array.empty).sortBy(_.getInt(9))
      c -> ranked.headOption.fold(ColumnProfile(c, 0L, 0L, 0L, Seq.empty, None, None, 0.0)) { h =>
        val nonNull = h.getLong(3) - h.getLong(4)
        ColumnProfile(
          name = c,
          rowCount = h.getLong(3),
          nullCount = h.getLong(4),
          distinctCount = h.getLong(5),
          frequentValues = ranked.iterator.filterNot(_.isNullAt(1)).take(maxValues)
            .map(r => ValueCount(r.getString(1), r.getLong(2))).toSeq,
          minNumeric = Option(h.get(6)).map(_.asInstanceOf[Double]),
          maxNumeric = Option(h.get(7)).map(_.asInstanceOf[Double]),
          numericParseRate = if (nonNull == 0) 0.0 else h.getLong(8).toDouble / nonNull,
        )
      }
    }
    TableProfile(profiles.head._2.rowCount, profiles.toMap, maxValues)
  }

  /** A non-string column's cells as doubles: NULL for a string column, whose
    * values are cast once each after the group-by, and for a type Spark
    * cannot cast to double.
    */
  private def typedNumber(f: StructField): Column =
    if (f.dataType.isInstanceOf[StringType] || !Cast.canTryCast(f.dataType, DoubleType)) F.lit(null).cast("double")
    else F.col(f.name).try_cast("double")
}

/** A scored single-attribute FD candidate lhs → rhs (§2.1.6, after Baran).
  * `strength` is the share of rows (with both sides non-null) agreeing with
  * their lhs group's plurality rhs value — 1.0 means the FD holds exactly,
  * and a few corrupted cells per group only dent it proportionally (an
  * entropy-style measure, after [Beskales et al.]). `violatingGroups` counts
  * lhs groups with more than one rhs value; `groups` lists the largest of
  * them (by size, ties by lhs value), in lhs order, each with its rhs values
  * most frequent first.
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
  * Every measurement is a DataFrame aggregation (Catalyst-executed); nothing
  * is collected beyond bounded summaries. This is the "statistical detection"
  * half of every Cocoon issue pipeline; the semantic half consumes these
  * summaries via the simulated LLM.
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

  /** Score every (lhs, rhs) pair with one query over the stacked
    * (pair, lhs value, rhs value) counts — the single-attribute partition
    * refinement of TANE [Huhtala et al.] — keeping up to `maxGroups`
    * violating groups per pair. Returns one [[FdScore]] per pair, in order.
    * The stacked rows are coalesced into one partition, so the group-by and
    * the windows run as one Spark job with no exchange.
    */
  def scoreFds(df: DataFrame, pairs: Seq[(String, String)], maxGroups: Int): Seq[FdScore] = {
    if (pairs.isEmpty) return Seq.empty
    val stacked = df.select(
      F.stack(F.lit(pairs.size) +: pairs.zipWithIndex.flatMap { case ((l, r), i) =>
        Seq(F.lit(i), F.col(l).cast("string"), F.col(r).cast("string"))
      }: _*).as(Seq("pair", "l", "r"))
    )
    val l = F.col("l"); val r = F.col("r"); val n = F.col("n")
    val d = F.col("d"); val pos = F.col("pos"); val grank = F.col("grank")
    // One sort per window, its aggregates over the whole ranked partition: plurality
    // rhs first (pos 1); violating groups first, then by (size desc, lhs value asc).
    val byPos   = Window.partitionBy("pair", "l").orderBy(n.desc, r.asc)
    val byGroup = Window.partitionBy("pair").orderBy(F.when(d > 1, 0).otherwise(1), F.col("sz").desc, l.asc)
    val group   = byPos.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    val pairWin = byGroup.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing)
    val rows = stacked
      .filter(l.isNotNull && r.isNotNull)
      .coalesce(1)
      .groupBy("pair", "l", "r")
      .agg(F.count(F.lit(1)).as("n"))
      .select(
        F.col("pair"), l, r, n,
        F.sum(n).over(group).as("sz"),
        F.count(F.lit(1)).over(group).as("d"),
        F.row_number().over(byPos).as("pos"),
      )
      .select(
        F.col("pair"), l, r, n, d, pos,
        F.sum(n).over(pairWin).as("total"),
        F.sum(F.when(pos === 1, n).otherwise(0L)).over(pairWin).as("agree"),
        F.sum(F.when(pos === 1 && d > 1, 1L).otherwise(0L)).over(pairWin).as("viol"),
        F.dense_rank().over(byGroup).as("grank"),
      )
      // The capped violating groups, plus one row per pair for its totals.
      .filter((d > 1 && grank <= maxGroups) || (grank === 1 && pos === 1))
      .collect()
      .groupBy(_.getInt(0))

    pairs.zipWithIndex.map { case ((lhs, rhs), i) =>
      rows.get(i).fold(FdScore(lhs, rhs, 0.0, 0L, Seq.empty)) { rs =>
        val h = rs.head
        val groups = rs.toSeq
          .filter(_.getLong(4) > 1)
          .sortBy(_.getInt(5))
          .groupBy(_.getString(1))
          .toSeq
          .sortBy(_._1)
          .map { case (lv, vs) => (lv, vs.map(x => ValueCount(x.getString(2), x.getLong(3)))) }
        FdScore(lhs, rhs, h.getLong(7).toDouble / h.getLong(6), h.getLong(8), groups)
      }
    }
  }
}
