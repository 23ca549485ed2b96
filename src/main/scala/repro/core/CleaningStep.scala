package repro.core

import scala.collection.immutable.VectorMap

import org.apache.spark.sql.{functions => F, Column, DataFrame}
import org.apache.spark.sql.catalyst.expressions.Literal
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.types.{DataType, DoubleType, MapType, StringType}
import repro.util.SqlGen
import repro.util.SqlGen.{lit, Dialect}

/** How one column is rewritten by a cleaning step. All of Cocoon's cleaning
  * actions (paper §2.1) reduce to these four SQL-expressible forms, which is
  * what makes the output "scalable, interpretable, and reusable" (§2.2).
  */
sealed trait Rewrite

/** `COALESCE(element_at(map('bad', 'good', ...), col), col)` — typo and
  * representation fixes (§2.1.1), pattern standardisation (§2.1.2), boolean
  * casts (§2.1.4). The keys are distinct and no key or target is NULL: a
  * literal map holds neither a key twice nor a NULL key, and `COALESCE`
  * cannot tell a NULL target from a value the map does not hold.
  */
final case class MapValues(mapping: Seq[(String, String)]) extends Rewrite {
  require(mapping.forall { case (k, v) => k != null && v != null }, "a value map has a NULL key or target")
  require(mapping.map(_._1).distinct.size == mapping.size, "a value map has a key twice")
}

/** `CASE WHEN col IN (...) THEN NULL ELSE col END` — DMV cleaning (§2.1.3). */
final case class MapToNull(values: Seq[String]) extends Rewrite

/** Null values outside the semantically acceptable range (§2.1.5). */
final case class RangeClamp(lo: Option[Double], hi: Option[Double]) extends Rewrite

/** One FD-violation repair: in rows where `lhsCol = lhsVal`, replace the bad
  * rhs value with the resolved correct one (§2.1.6).
  */
final case class FdCase(lhsCol: String, lhsVal: String, badRhs: String, target: String)

/** FD repairs of one column, rendered as one nested map lookup per lhs
  * column: `COALESCE(element_at(element_at(map('l', map('bad', 'good', ...),
  * ...), lhs1), col), ..., col)`, the groups in arm order. A row takes the
  * arm of the first lhs column with one that matches it, as a flat
  * `CASE WHEN lhs = 'l' AND col = 'bad'` over arms sorted by lhs column
  * would, when `(lhsCol, lhsVal, badRhs)` is unique and no value is NULL.
  * Each map is one literal, so the code whole-stage codegen generates for it
  * is the same size however many arms it holds.
  */
final case class FdRepair(cases: Seq[FdCase]) extends Rewrite

/** A column rewrite with the LLM's natural-language reasoning, which becomes
  * the SQL comment in the emitted script (paper Figure 5).
  */
final case class ColumnRewrite(column: String, rewrite: Rewrite, reasoning: String)

/** Which rows a step keeps. Column rewrites change values in place; the two
  * row-level issues (§2.1.7, §2.1.8) remove rows, and say why.
  */
sealed trait RowAction

/** Every row survives: the column-rewrite stages. */
case object KeepAllRows extends RowAction

/** `SELECT DISTINCT`: one copy of each fully duplicated row (§2.1.7). */
final case class DistinctRows(reasoning: String) extends RowAction

/** One row per value of `key`: the first by `orderCol` descending, NULLs
  * last, ties to the lowest `rowKey`, so the survivor depends neither on the
  * engine nor on how the input is partitioned (§2.1.8). Every row whose key
  * is NULL stays: as in SQL `UNIQUE`, no two NULL keys are equal.
  */
final case class KeepFirstPerKey(key: String, orderCol: String, rowKey: Option[String], reasoning: String)
    extends RowAction

/** One stage of the pipeline: all rewrites for one issue type and the rows it
  * keeps, applied as a single SELECT.
  */
final case class CleaningStep(issue: String, rewrites: Seq[ColumnRewrite], rows: RowAction = KeepAllRows) {
  def isNoop: Boolean = rewrites.isEmpty && rows == KeepAllRows
}

object CleaningStep {

  /** String-typed columns eligible for cleaning. */
  def stringColumns(df: DataFrame, exclude: Set[String]): Seq[String] =
    df.schema.fields.filter(f => f.dataType == StringType && !exclude(f.name)).map(_.name).toSeq

  /** Render a rewrite as a SQL expression in dialect `d`: Spark runs it, and
    * the DuckDB oracle re-runs the same logical SQL in its own spelling. A
    * rewrite with nothing to rewrite is the bare column. Each map is one
    * literal, so the generated code does not grow with its entries.
    */
  def renderExpr(col: String, rw: Rewrite, d: Dialect): String = {
    val c = d.ident(col)
    rw match {
      case MapValues(m) if m.nonEmpty =>
        s"COALESCE(${d.lookup(d.map(m.map { case (bad, good) => lit(bad) -> lit(good) }), c)}, $c)"
      case MapToNull(vs) if vs.nonEmpty => s"CASE WHEN $c IN (${vs.map(lit).mkString(", ")}) THEN NULL ELSE $c END"
      case RangeClamp(lo, hi) if lo.nonEmpty || hi.nonEmpty =>
        // TRY_CAST: tolerant of residual non-numeric strings on both Spark
        // (ANSI mode) and DuckDB.
        val conds = lo.map(v => s"TRY_CAST($c AS DOUBLE) < $v") ++ hi.map(v => s"TRY_CAST($c AS DOUBLE) > $v")
        s"CASE WHEN ${conds.mkString(" OR ")} THEN NULL ELSE $c END"
      case FdRepair(cases) if cases.nonEmpty =>
        val groups = inOrder(cases)(_.lhsCol).map { case (lhs, byLhs) =>
          val byVal = inOrder(byLhs)(_.lhsVal).map { case (lhsVal, arms) =>
            lit(lhsVal) -> d.map(arms.map(a => lit(a.badRhs) -> lit(a.target)))
          }
          d.lookup(d.lookup(d.map(byVal), d.ident(lhs)), c)
        }
        s"COALESCE(${(groups :+ c).mkString(", ")})"
      case _ => c
    }
  }

  /** `xs` grouped by `key`, the groups and their members in `xs`'s order. */
  private def inOrder[A, K](xs: Seq[A])(key: A => K): Seq[(K, Seq[A])] =
    xs.map(key).distinct.map(k => k -> xs.filter(key(_) == k))

  /** The row number's name, which no column of the table has. */
  private def rowNumberName(columns: Seq[String]): String =
    Iterator.iterate("__rn")(_ + "_").find(n => !columns.exists(_.equalsIgnoreCase(n))).get

  /** Full SELECT for one step over `fromRelation`, with reasoning comments.
    * `KeepFirstPerKey` picks its rows before the rewrites, `DISTINCT` after.
    */
  def renderSelect(
      step: CleaningStep,
      allColumns: Seq[String],
      fromRelation: String,
      d: Dialect,
  ): String = {
    val quote = d.ident
    val byCol = step.rewrites.map(r => r.column -> r).toMap
    val (rowReasoning, distinct, from) = step.rows match {
      case KeepAllRows       => (None, "", fromRelation)
      case DistinctRows(why) => (Some(why), "DISTINCT ", fromRelation)
      case KeepFirstPerKey(key, ord, rowKey, why) =>
        val by = (s"${quote(ord)} DESC NULLS LAST" +: rowKey.filterNot(_ == ord).map(quote).toSeq).mkString(", ")
        val rn = rowNumberName(allColumns)
        val ranked = s"SELECT *, ROW_NUMBER() OVER (PARTITION BY ${quote(key)} ORDER BY $by) AS $rn FROM $fromRelation"
        (Some(why), "", s"(\n  $ranked\n) WHERE $rn = 1 OR ${quote(key)} IS NULL")
    }
    val comments = (step.rewrites.map(r => s"${r.column}: ${r.reasoning}") ++ rowReasoning)
      .map(SqlGen.comment)
      .mkString("\n")
    val items = allColumns
      .map { c =>
        byCol.get(c) match {
          case Some(r) => s"${renderExpr(c, r.rewrite, d)} AS ${quote(c)}"
          case None    => quote(c)
        }
      }
      .mkString(",\n  ")
    val head = if (comments.nonEmpty) comments + "\n" else ""
    s"${head}SELECT $distinct$items\nFROM $from"
  }

  /** The commented script for `steps` over the relation `input` with
    * `columns` (§2.2, Figure 5): one CTE per step, named after its position
    * and issue, each selecting from the one before.
    */
  def renderScript(steps: Seq[CleaningStep], columns: Seq[String], d: Dialect): String =
    if (steps.isEmpty) "-- no data quality issues detected\nSELECT * FROM input"
    else {
      val names = steps.zipWithIndex.map { case (s, i) => s"cleaned_${i + 1}_${s.issue.replace('-', '_')}" }
      val ctes = steps.lazyZip(names).lazyZip("input" +: names).map { (step, name, from) =>
        s"$name AS (\n${renderSelect(step, columns, from, d)}\n)"
      }
      s"${ctes.mkString("WITH ", ",\n", "")}\nSELECT * FROM ${names.last}"
    }

  /** Apply one step: the plan of [[renderSelect]]'s SELECT, built through
    * the DataFrame API from the same rewrites and row action, with no SQL
    * text to parse and no view to register. Each literal map is one Catalyst
    * constant, the form constant folding gives the script's `map(…)`, so
    * the analyser has no child per entry to resolve. The script is rendered
    * from the same steps, and wherever a test runs Cocoon it checks the
    * script against the result on Spark and on DuckDB.
    */
  def apply(df: DataFrame, step: CleaningStep): DataFrame =
    if (step.isNoop) df
    else {
      val columns = df.columns.toSeq
      val byCol   = step.rewrites.map(r => r.column -> r.rewrite).toMap
      val from = step.rows match {
        case KeepFirstPerKey(key, ord, rowKey, _) =>
          val rn = rowNumberName(columns)
          val by = col(ord).desc_nulls_last +: rowKey.filterNot(_ == ord).map(col(_).asc).toSeq
          df.withColumn(rn, F.row_number().over(Window.partitionBy(col(key)).orderBy(by: _*))).filter(col(rn) === 1 || col(key).isNull)
        case _ => df
      }
      val selected = from.select(columns.map(c => byCol.get(c).fold(col(c))(rw => column(c, rw).as(c))): _*)
      if (step.rows.isInstanceOf[DistinctRows]) selected.distinct() else selected
    }

  /** A column of the input by its name, quoted as the script quotes it. */
  private def col(name: String): Column = F.col(SqlGen.ident(name))

  /** The column [[renderExpr]] renders for `rw`, built from the same parts. */
  private def column(c: String, rw: Rewrite): Column = rw match {
    case MapValues(m) if m.nonEmpty => F.coalesce(F.element_at(literalMap(m, StringType), col(c)), col(c))
    case MapToNull(vs) if vs.nonEmpty => F.when(col(c).isin(vs: _*), F.lit(null)).otherwise(col(c))
    case RangeClamp(lo, hi) if lo.nonEmpty || hi.nonEmpty =>
      val v = col(c).try_cast(DoubleType)
      F.when((lo.map(v < _) ++ hi.map(v > _)).reduce(_ || _), F.lit(null)).otherwise(col(c))
    case FdRepair(cases) if cases.nonEmpty =>
      val groups = inOrder(cases)(_.lhsCol).map { case (lhs, byLhs) =>
        val byVal = inOrder(byLhs)(_.lhsVal).map { case (v, arms) => v -> VectorMap.from(arms.map(a => a.badRhs -> a.target)) }
        F.element_at(F.element_at(literalMap(byVal, MapType(StringType, StringType, valueContainsNull = false)), col(lhs)), col(c))
      }
      F.coalesce(groups :+ col(c): _*)
    case _ => col(c)
  }

  /** `entries` as one literal map from strings to `valueType`, in their order. */
  private def literalMap(entries: Seq[(String, Any)], valueType: DataType): Column =
    F.lit(Literal.create(VectorMap.from(entries), MapType(StringType, valueType, valueContainsNull = false)))
}
