package repro.core

import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.{classic, DataFrame, SparkSession}
import repro.util.SqlGen

/** How one column is rewritten by a cleaning step. All of Cocoon's cleaning
  * actions (paper §2.1) reduce to these four SQL-expressible forms, which is
  * what makes the output "scalable, interpretable, and reusable" (§2.2).
  */
sealed trait Rewrite

/** `CASE WHEN col='bad' THEN 'good' ... ELSE col END` — typo/representation
  * fixes (§2.1.1), pattern standardisation (§2.1.2), boolean casts (§2.1.4).
  */
final case class MapValues(mapping: Seq[(String, String)]) extends Rewrite

/** `CASE WHEN col IN (...) THEN NULL ELSE col END` — DMV cleaning (§2.1.3). */
final case class MapToNull(values: Seq[String]) extends Rewrite

/** Null values outside the semantically acceptable range (§2.1.5). */
final case class RangeClamp(lo: Option[Double], hi: Option[Double]) extends Rewrite

/** One FD-violation repair: in rows where `lhsCol = lhsVal`, replace the bad
  * rhs value with the resolved correct one (§2.1.6).
  */
final case class FdCase(lhsCol: String, lhsVal: String, badRhs: String, target: String)

/** `CASE WHEN lhs='l' AND col='bad' THEN 'good' ... ELSE col END`. */
final case class FdRepair(cases: Seq[FdCase]) extends Rewrite

/** A column rewrite with the LLM's natural-language reasoning, which becomes
  * the SQL comment in the emitted script (paper Figure 5).
  */
final case class ColumnRewrite(column: String, rewrite: Rewrite, reasoning: String)

/** One stage of the pipeline: all rewrites for one issue type, applied as a
  * single SELECT. `dropExactDuplicates` models §2.1.7's SELECT DISTINCT.
  */
final case class CleaningStep(
    issue: String,
    rewrites: Seq[ColumnRewrite],
    dropExactDuplicates: Boolean = false,
) {
  def isNoop: Boolean = rewrites.isEmpty && !dropExactDuplicates
}

object CleaningStep {

  /** Render a rewrite as a SQL expression in the given identifier dialect
    * (backticks for Spark, double quotes for DuckDB — the oracle re-runs the
    * same logical SQL there).
    */
  def renderExpr(col: String, rw: Rewrite, quote: String => String): String = rw match {
    case MapValues(m)      => SqlGen.caseWhenMap(col, m, quote)
    case MapToNull(vs)     => SqlGen.caseWhenNull(col, vs, quote)
    case RangeClamp(lo, hi) => SqlGen.caseWhenRange(col, lo, hi, quote)
    case FdRepair(cases) =>
      if (cases.isEmpty) quote(col)
      else {
        val whens = cases
          .map(c =>
            s"WHEN ${quote(c.lhsCol)} = ${SqlGen.lit(c.lhsVal)} AND ${quote(col)} = ${SqlGen.lit(c.badRhs)} " +
              s"THEN ${SqlGen.lit(c.target)}"
          )
          .mkString(" ")
        s"CASE $whens ELSE ${quote(col)} END"
      }
  }

  /** Full SELECT for one step over `fromRelation`, with reasoning comments. */
  def renderSelect(
      step: CleaningStep,
      allColumns: Seq[String],
      fromRelation: String,
      quote: String => String,
  ): String = {
    val byCol = step.rewrites.map(r => r.column -> r).toMap
    val comments = step.rewrites
      .map(r => SqlGen.comment(s"${r.column}: ${r.reasoning}"))
      .mkString("\n")
    val items = allColumns
      .map { c =>
        byCol.get(c) match {
          case Some(r) => s"${renderExpr(c, r.rewrite, quote)} AS ${quote(c)}"
          case None    => quote(c)
        }
      }
      .mkString(",\n  ")
    val distinct = if (step.dropExactDuplicates) "DISTINCT " else ""
    val head     = if (comments.nonEmpty) comments + "\n" else ""
    s"${head}SELECT $distinct$items\nFROM $fromRelation"
  }

  /** Apply one step by executing its generated SQL through Catalyst — the
    * reproduction runs the very SQL text Cocoon emits, not a parallel
    * DataFrame re-implementation of it.
    */
  def apply(spark: SparkSession, df: DataFrame, step: CleaningStep): DataFrame =
    if (step.isNoop) df
    else sqlOver(spark, df)(view => renderSelect(step, df.columns.toSeq, view, SqlGen.ident))

  private val viewCounter = new AtomicLong

  /** Run the SQL that `sql` renders over `df`, registered as a fresh temp
    * view that is dropped once `spark.sql` has resolved it into the plan.
    * The drop goes through the session catalog directly:
    * `Catalog.dropTempView` would also uncache the view's data, which here is
    * the caller's (possibly cached) DataFrame.
    */
  private[core] def sqlOver(spark: SparkSession, df: DataFrame)(sql: String => String): DataFrame = {
    val view = s"cocoon_stage_${viewCounter.incrementAndGet()}"
    df.createOrReplaceTempView(view)
    try spark.sql(sql(view))
    finally spark.asInstanceOf[classic.SparkSession].sessionState.catalog.dropTempView(view)
  }
}
