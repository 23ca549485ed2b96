package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions.{Alias, AttributeSet, BindReferences, Expression, Literal}
import org.apache.spark.sql.catalyst.plans.logical.Project
import org.apache.spark.sql.types.StringType
import org.apache.spark.unsafe.types.UTF8String
import repro.profile.{ColumnProfile, TableProfile}

/** The [[TableProfile]] of a table after a cleaning step, derived on the
  * driver from the profile before it and the applied step's analysed plan:
  * no query runs, and the rewritten table need not be profiled again.
  *
  * Every rewrite Cocoon emits is a function of a cell's value (§2.1.1–§2.1.5)
  * or a single-lhs FD repair (§2.1.6), so a column's full (value, count)
  * table determines the rewritten column's profile:
  *   - a value map is the column's expression in the top `Project` of the
  *     plan [[CleaningStep.apply]] resolved, bound to the column and
  *     evaluated by Catalyst over each value — the interpreted evaluation
  *     Spark gives a projection over a local relation — so the carried
  *     values follow Spark's semantics exactly;
  *   - an FD repair moves the rows each arm counted from its bad value to
  *     its target, exact when no row can match two arms.
  *
  * The profile's column pairs carry through a value map the same way: each
  * side of a pair's joint counts is mapped by its column's value → value
  * map, rows where a side became NULL drop out, and equal results merge. An
  * FD repair drops its column's pairs, since no later stage reads them.
  *
  * The carry is undefined (`None`), and the table must be profiled again,
  * when the step has a row action, the analysed plan is not a `Project`
  * computing the column (a value map from the column alone), the step
  * rewrites a non-string column, or it is an FD repair with overlapping arms.
  */
object ProfileCarry {

  def after(profile: TableProfile, step: CleaningStep, applied: DataFrame): Option[TableProfile] =
    applied.queryExecution.analyzed match {
      case Project(items, child) if step.rows == KeepAllRows =>
        val exprs = items.collect { case a: Alias => a.name -> a.child }.toMap
        val carried = step.rewrites.map { r =>
          for {
            expr   <- exprs.get(r.column)
            in     <- child.output.find(_.name == r.column) if in.dataType == StringType
            before <- profile.columns.get(r.column)
            after <- r.rewrite match {
              case FdRepair(cases) =>
                Option.when(disjoint(cases))(
                  Rewritten(before.counts.toSeq ++ cases.flatMap(k => Seq(k.badRhs -> -k.rows, k.target -> k.rows)), None))
              case _ =>
                Option.when(expr.references.subsetOf(AttributeSet(in))) {
                  val bound  = BindReferences.bindReference(folded(expr), Seq(in))
                  val values = before.counts.toSeq.map { case (v, n) => (v, Option(bound.eval(row(v))).map(_.toString).orNull, n) }
                  Rewritten(values.map { case (_, to, n) => to -> n }, Some(values.map { case (v, to, _) => v -> to }.toMap))
                }
            }
          } yield r.column -> after
        }
        Option.when(carried.forall(_.isDefined)) {
          val rewritten = carried.flatten.toMap
          val maps      = rewritten.collect { case (c, Rewritten(_, Some(m))) => c -> m }
          // An FD repair's column leaves the pairs: no later stage reads them.
          val repaired = rewritten.keySet -- maps.keySet
          val pairs = profile.pairs.collect {
            case ((l, r), joint) if !repaired(l) && !repaired(r) => (l, r) -> mapJoint(joint, maps.get(l), maps.get(r))
          }
          profile.copy(columns = profile.columns ++ rewritten.map { case (c, a) => c -> ColumnProfile.ofStrings(a.counts) }, pairs = pairs)
        }
      case _ => None
    }

  /** A rewritten column's (value, count) table after a step, nulls
    * included, and its map from each value before the step to the value
    * after it, where the step is a value map.
    */
  private final case class Rewritten(counts: Seq[(String, Long)], values: Option[Map[String, String]])

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

  /** No row matches two arms: arms sharing a bad value share one lhs column
    * and differ in its value.
    */
  private def disjoint(cases: Seq[FdCase]): Boolean =
    cases.groupBy(_.badRhs).values.forall { arms =>
      arms.map(_.lhsCol).distinct.size == 1 && arms.map(_.lhsVal).distinct.size == arms.size
    }

  /** `e` with each foldable subtree evaluated once into a literal, as Spark's
    * constant folding does, so a value map's literal map is built once and
    * not once per value it is evaluated on.
    */
  private def folded(e: Expression): Expression =
    e.transformDown { case f if f.foldable => Literal.create(f.eval(), f.dataType) }

  /** One string value as the row an expression bound to ordinal 0 reads. */
  private def row(v: String): InternalRow = InternalRow(UTF8String.fromString(v))
}
