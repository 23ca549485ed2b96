package repro.profile

import org.apache.spark.sql.{DataFrame, functions => F}

/** The per-column and per-pair queries that [[TableProfile]] and
  * [[Profiler.scoreFds]] replace, kept as the reference they must agree with.
  * Each is a separate Spark query per column or per FD pair.
  */
object ReferenceProfiler {

  /** One column's profile, with its `maxValues` most frequent values. */
  def profileColumn(df: DataFrame, col: String, maxValues: Int): ColumnProfile = {
    val c = F.col(col)
    val num = c.try_cast("double")
    val agg = df
      .agg(
        F.count(F.lit(1)).as("rows"),
        F.sum(F.when(c.isNull, 1L).otherwise(0L)).as("nulls"),
        F.countDistinct(c).as("distinct"),
        F.min(num).as("minn"),
        F.max(num).as("maxn"),
        F.sum(F.when(c.isNotNull && num.isNotNull, 1L).otherwise(0L)).as("numOk"),
      )
      .collect()(0)
    val rows  = agg.getLong(0)
    val nulls = Option(agg.get(1)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val nonNull = rows - nulls
    val freq = df
      .filter(c.isNotNull)
      .groupBy(c.cast("string").as("v"))
      .agg(F.count(F.lit(1)).as("n"))
      .orderBy(F.desc("n"), F.asc("v"))
      .limit(maxValues)
      .collect()
      .map(r => ValueCount(r.getString(0), r.getLong(1)))
      .toSeq
    ColumnProfile(
      name = col,
      rowCount = rows,
      nullCount = nulls,
      distinctCount = agg.getLong(2),
      frequentValues = freq,
      minNumeric = Option(agg.get(3)).map(_.asInstanceOf[Double]),
      maxNumeric = Option(agg.get(4)).map(_.asInstanceOf[Double]),
      numericParseRate = if (nonNull == 0) 0.0 else agg.getLong(5).toDouble / nonNull,
    )
  }

  /** (strength, violating group count) of lhs → rhs. */
  def scoreFd(df: DataFrame, lhs: String, rhs: String): (Double, Long) = {
    val pairs = df
      .filter(F.col(lhs).isNotNull && F.col(rhs).isNotNull)
      .groupBy(F.col(lhs), F.col(rhs))
      .agg(F.count(F.lit(1)).as("n"))
    val grouped = pairs
      .groupBy(F.col(lhs))
      .agg(F.sum("n").as("sz"), F.max("n").as("mx"), F.count(F.lit(1)).as("d"))
      .agg(
        F.sum("sz").as("rows"),
        F.sum("mx").as("agree"),
        F.sum(F.when(F.col("d") > 1, 1L).otherwise(0L)).as("viol"),
      )
      .collect()(0)
    val total = Option(grouped.get(0)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val agree = Option(grouped.get(1)).map(_.asInstanceOf[Long]).getOrElse(0L)
    val viol  = Option(grouped.get(2)).map(_.asInstanceOf[Long]).getOrElse(0L)
    (if (total == 0) 0.0 else agree.toDouble / total, viol)
  }

  /** Every violating lhs group of lhs → rhs, in lhs order, with its rhs
    * values most frequent first. Uncapped: the old cap picked among groups
    * tied in size arbitrarily.
    */
  def fdViolatingGroups(df: DataFrame, lhs: String, rhs: String): Seq[(String, Seq[ValueCount])] = {
    val pairs = df
      .filter(F.col(lhs).isNotNull && F.col(rhs).isNotNull)
      .groupBy(F.col(lhs).cast("string").as("l"), F.col(rhs).cast("string").as("r"))
      .agg(F.count(F.lit(1)).as("n"))
    val bad = pairs
      .groupBy("l")
      .agg(F.countDistinct("r").as("d"))
      .filter(F.col("d") > 1)
      .select("l")
    bad
      .join(pairs, "l")
      .orderBy(F.asc("l"), F.desc("n"), F.asc("r"))
      .collect()
      .toSeq
      .map(r => (r.getString(0), ValueCount(r.getString(1), r.getLong(2))))
      .groupBy(_._1)
      .map { case (k, vs) => (k, vs.map(_._2)) }
      .toSeq
      .sortBy(_._1)
  }
}
