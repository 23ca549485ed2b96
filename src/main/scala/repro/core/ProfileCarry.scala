package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Alias, BindReferences, Expression, Literal}
import org.apache.spark.sql.catalyst.plans.logical.Project
import org.apache.spark.sql.types.StringType
import org.apache.spark.unsafe.types.UTF8String
import repro.profile.{ColumnProfile, TableProfile}

/** The [[TableProfile]] of a table after a cleaning step, derived on the
  * driver from the profile before it and the applied step's analysed plan,
  * with no query.
  *
  * Each rewritten column's expression in the plan's top `Project` is bound
  * to the columns it reads and evaluated by Catalyst, as Spark evaluates a
  * projection over a local relation, over the rows of each combination of
  * their values, NULL cells included ([[TableProfile.table]]): for a value
  * map (§2.1.1–§2.1.5), its column's (value, rows) table; for an FD repair
  * (§2.1.6), which also reads its lhs columns, the table the profile counted
  * for its column.
  *
  * The counted tables carry through a value map's value → value map: each
  * cell's values are mapped, NULL among them, and equal results merge. A
  * table holding a column rewritten from other columns is dropped: no later
  * stage reads it.
  *
  * Undefined (`None`), so the table is profiled again, when the step has a
  * row action, the plan is not a `Project` computing the column from it, or
  * the expression reads or gives a non-string column, or reads columns no
  * counted table holds together.
  */
object ProfileCarry {

  def after(profile: TableProfile, step: CleaningStep, applied: DataFrame): Option[TableProfile] =
    applied.queryExecution.analyzed match {
      case Project(items, _) if step.rows == KeepAllRows =>
        val exprs = items.collect { case a: Alias => a.name -> a.child }.toMap
        // Each rewritten column's (value, rows) table after the step, nulls
        // included, and its value → value map if it reads only itself.
        val carried = step.rewrites.map { r =>
          for {
            expr <- exprs.get(r.column)
            in   <- expr.references.find(_.name == r.column)
            others = expr.references.toSeq.filterNot(_ == in)
            if (expr +: others :+ in).forall(_.dataType == StringType)
            cells <- profile.table(others.map(_.name) :+ r.column)
          } yield {
            val bound  = BindReferences.bindReference(folded(expr), others :+ in)
            val values = cells.toSeq.map { case (vs, n) =>
              (vs, Option(bound.eval(InternalRow.fromSeq(vs.map(UTF8String.fromString)))).map(_.toString).orNull, n)
            }
            r.column -> (values.map { case (_, to, n) => to -> n }, Option.when(others.isEmpty)(values.map { case (vs, to, _) => vs.head -> to }.toMap))
          }
        }
        Option.when(carried.forall(_.isDefined)) {
          val rewritten = carried.flatten.toMap
          val maps      = rewritten.collect { case (c, (_, Some(m))) => c -> m }
          // A column rewritten from others leaves the tables: no later stage reads them.
          val dropped = rewritten.keySet -- maps.keySet
          val tables = profile.tables.collect {
            case (cols, t) if !cols.exists(dropped) => cols -> mapTable(t, cols.map(maps.get))
          }
          profile.copy(columns = profile.columns ++ rewritten.map { case (c, (counts, _)) => c -> ColumnProfile.ofStrings(counts) }, tables = tables)
        }
      case _ => None
    }

  /** A table with each cell's values mapped by their columns' value maps,
    * where they have one: cells mapped to the same values merge.
    */
  private def mapTable(t: TableProfile.Table, maps: Seq[Option[Map[String, String]]]): TableProfile.Table =
    if (maps.forall(_.isEmpty)) t
    else t.toSeq.groupMapReduce { case (vs, _) => vs.lazyZip(maps).map((v, m) => m.fold(v)(_(v))) }(_._2)(_ + _)

  /** `e` with each foldable subtree evaluated once into a literal, as Spark's
    * constant folding does, so a value map's literal map is built once and
    * not once per value it is evaluated on.
    */
  private def folded(e: Expression): Expression =
    e.transformDown { case f if f.foldable => Literal.create(f.eval(), f.dataType) }
}
