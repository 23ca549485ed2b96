package repro.profile

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.expressions.Window

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

/** Profile of one table state: a [[ColumnProfile]] for every profiled column,
  * each keeping its `maxValues` most frequent values (most frequent first,
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

  /** Profile every column not in `exclude` with one query over the melted
    * table: group by (column, value), then rank each column's values and
    * aggregate its counts in Spark, so only the top `maxValues` values per
    * column reach the driver.
    */
  def of(df: DataFrame, exclude: Set[String] = Set.empty, maxValues: Int = MaxValues): TableProfile = {
    val cols = df.columns.toSeq.filterNot(exclude)
    if (cols.isEmpty) return TableProfile(df.count(), Map.empty, maxValues)

    // Each value as text and as a number. try_cast: under Spark 4 ANSI
    // semantics a plain cast on malformed strings throws instead of
    // yielding NULL.
    val melted = df.select(
      F.stack(F.lit(cols.size) +: cols.flatMap(c => Seq(F.lit(c), F.col(c).cast("string"), F.col(c).try_cast("double"))): _*)
        .as(Seq("column", "value", "num"))
    )
    val v = F.col("value"); val n = F.col("n"); val num = F.col("num")
    val byCol = Window.partitionBy("column")
    val rows = melted
      .groupBy("column", "value")
      .agg(F.count(F.lit(1)).as("n"), F.max(num).as("num"))
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
        F.row_number().over(byCol.orderBy(v.isNull, n.desc, v.asc)).as("rank"),
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

  /** Number of fully duplicated rows beyond the first occurrence (§2.1.7). */
  def duplicateRowCount(df: DataFrame, profile: TableProfile): Long =
    profile.rowCount - df.distinct().count()

  /** Score every (lhs, rhs) pair with one query over the stacked
    * (pair, lhs value, rhs value) counts — the single-attribute partition
    * refinement of TANE [Huhtala et al.] — keeping up to `maxGroups`
    * violating groups per pair. Returns one [[FdScore]] per pair, in order.
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
    val group   = Window.partitionBy("pair", "l")
    val pairWin = Window.partitionBy("pair")
    val rows = stacked
      .filter(l.isNotNull && r.isNotNull)
      .groupBy("pair", "l", "r")
      .agg(F.count(F.lit(1)).as("n"))
      .select(
        F.col("pair"), l, r, n,
        F.sum(n).over(group).as("sz"),
        F.count(F.lit(1)).over(group).as("d"),
        F.row_number().over(group.orderBy(n.desc, r.asc)).as("pos"), // 1 = plurality rhs
      )
      .select(
        F.col("pair"), l, r, n, d, pos,
        F.sum(n).over(pairWin).as("total"),
        F.sum(F.when(pos === 1, n).otherwise(0L)).over(pairWin).as("agree"),
        F.sum(F.when(pos === 1 && d > 1, 1L).otherwise(0L)).over(pairWin).as("viol"),
        // Violating groups first, then by (size desc, lhs value asc).
        F.dense_rank()
          .over(pairWin.orderBy(F.when(d > 1, 0).otherwise(1), F.col("sz").desc, l.asc))
          .as("grank"),
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
