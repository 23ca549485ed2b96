package repro.profile

import org.apache.spark.sql.{DataFrame, functions => F}
import org.apache.spark.sql.catalyst.expressions.Cast
import org.apache.spark.sql.types.DoubleType

/** The per-column and per-pair queries that [[TableProfile]] and
  * [[repro.core.FunctionalDeps.scoreFds]] replace, kept as the reference
  * they must agree with. Each is a separate Spark query per column or per
  * FD pair.
  */
object ReferenceProfiler {

  /** One column's profile; its non-null values as Spark ranks them
    * (`ORDER BY n DESC, v ASC`); and its rows and distinct values as Spark's
    * `count` and `countDistinct` give them.
    */
  final case class Reference(profile: ColumnProfile, ranked: Seq[ValueCount], rows: Long, distinct: Long)

  /** One column's reference: each cell cast to double, NULL where Spark
    * cannot cast the column's type, and distinct values counted by their
    * text, as they are listed.
    */
  def profileColumn(df: DataFrame, col: String): Reference = {
    val c = F.col(col)
    val num = if (Cast.canTryCast(df.schema(col).dataType, DoubleType)) c.try_cast("double") else F.lit(null).cast("double")
    val agg = df
      .agg(
        F.count(F.lit(1)).as("rows"),
        F.sum(F.when(c.isNull, 1L).otherwise(0L)).as("nulls"),
        F.countDistinct(c.cast("string")).as("distinct"),
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
      .collect()
      .map(r => ValueCount(r.getString(0), r.getLong(1)))
      .toSeq
    val profile = ColumnProfile(
      counts = freq.map(v => v.value -> v.count).toMap ++ Option.when(nulls > 0)((null: String) -> nulls),
      minNumeric = Option(agg.get(3)).map(_.asInstanceOf[Double]),
      maxNumeric = Option(agg.get(4)).map(_.asInstanceOf[Double]),
      numericParseRate = if (nonNull == 0) 0.0 else agg.getLong(5).toDouble / nonNull,
    )
    Reference(profile, freq, rows, agg.getLong(2))
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

  /** The `maxGroups` largest violating lhs groups of lhs → rhs, size ties by
    * lhs value in Spark's order, listed in lhs order, each with its rhs
    * values most frequent first.
    */
  def fdViolatingGroups(df: DataFrame, lhs: String, rhs: String, maxGroups: Int): Seq[(String, Seq[ValueCount])] = {
    val pairs = df
      .filter(F.col(lhs).isNotNull && F.col(rhs).isNotNull)
      .groupBy(F.col(lhs).cast("string").as("l"), F.col(rhs).cast("string").as("r"))
      .agg(F.count(F.lit(1)).as("n"))
    val bad = pairs
      .groupBy("l")
      .agg(F.countDistinct("r").as("d"), F.sum("n").as("sz"))
      .filter(F.col("d") > 1)
      .orderBy(F.desc("sz"), F.asc("l"))
      .limit(maxGroups)
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
