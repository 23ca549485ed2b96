package repro.core

import scala.util.Try

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
  * their values: for a value map (§2.1.1–§2.1.5), its column's (value, rows)
  * table; for an FD repair (§2.1.6), which also reads its lhs column, the
  * pair's contingency table, NULL sides included: the joint counts, each
  * value's rows they leave out beside a NULL, and the rest NULL on both.
  *
  * Pairs carry through a value map's value → value map: rows where a side
  * became NULL drop out, and equal results merge. A column rewritten from
  * another column drops its pairs, which no later stage reads.
  *
  * Undefined (`None`), so the table is profiled again, when the step has a
  * row action, the plan is not a `Project` computing the column from it, or
  * the expression reads or gives a non-string column, reads two other
  * columns, or reads one whose pair the profile did not count.
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
            cells <- table(profile, others.map(_.name) :+ r.column)
          } yield {
            val bound  = BindReferences.bindReference(folded(expr), others :+ in)
            val values = cells.map { case (vs, n) =>
              (vs, Option(bound.eval(InternalRow.fromSeq(vs.map(UTF8String.fromString)))).map(_.toString).orNull, n)
            }
            r.column -> (values.map { case (_, to, n) => to -> n }, Option.when(others.isEmpty)(values.map { case (vs, to, _) => vs.head -> to }.toMap))
          }
        }
        Option.when(carried.forall(_.isDefined)) {
          val rewritten = carried.flatten.toMap
          val maps      = rewritten.collect { case (c, (_, Some(m))) => c -> m }
          // A column rewritten from another leaves the pairs: no later stage reads them.
          val dropped = rewritten.keySet -- maps.keySet
          val pairs = profile.pairs.collect {
            case ((l, r), joint) if !dropped(l) && !dropped(r) => (l, r) -> mapJoint(joint, maps.get(l), maps.get(r))
          }
          profile.copy(columns = profile.columns ++ rewritten.map { case (c, (counts, _)) => c -> ColumnProfile.ofStrings(counts) }, pairs = pairs)
        }
      case _ => None
    }

  /** The rows of each combination of the values of `cols`, NULL included:
    * one column's (value, rows) table, or the contingency table of a counted
    * pair. `None` for any other `cols`.
    */
  private def table(profile: TableProfile, cols: Seq[String]): Option[Seq[(Seq[String], Long)]] = cols match {
    case Seq(c) => Some(profile(c).counts.toSeq.map { case (v, n) => Seq(v) -> n })
    case Seq(l, c) =>
      Try(profile.joint(l, c)).toOption.map { joint =>
        val paired = joint.toSeq.map { case ((a, b), n) => Seq(a, b) -> n }
        val besideNull = Seq(l, c).zipWithIndex.flatMap { case (col, side) =>
          val inJoint = paired.groupMapReduce(_._1(side))(_._2)(_ + _)
          profile(col).counts.toSeq.collect { case (v, n) if v != null => Seq[String](null, null).updated(side, v) -> (n - inJoint.getOrElse(v, 0L)) }
        }
        val cells = paired ++ besideNull
        cells :+ (Seq(null, null) -> (profile.rowCount - cells.map(_._2).sum))
      }
    case _ => None
  }

  /** A pair's joint counts with each side mapped by its column's value map,
    * if it has one: rows where a side became NULL drop out, and pairs mapped
    * to the same values merge.
    */
  private def mapJoint(joint: TableProfile.Joint, lhs: Option[Map[String, String]], rhs: Option[Map[String, String]]): TableProfile.Joint =
    if (lhs.isEmpty && rhs.isEmpty) joint
    else
      joint.toSeq
        .map { case ((l, r), n) => (lhs.fold(l)(_(l)), rhs.fold(r)(_(r))) -> n }
        .filter { case ((l, r), _) => l != null && r != null }
        .groupMapReduce(_._1)(_._2)(_ + _)

  /** `e` with each foldable subtree evaluated once into a literal, as Spark's
    * constant folding does, so a value map's literal map is built once and
    * not once per value it is evaluated on.
    */
  private def folded(e: Expression): Expression =
    e.transformDown { case f if f.foldable => Literal.create(f.eval(), f.dataType) }
}
