package repro.core

import org.apache.spark.sql.DataFrame
import repro.llm.LLMClient
import repro.profile.{Profiler, TableProfile}

/** §2.1.6 Functional Dependencies.
  *
  * Following Baran, only single-attribute FDs are considered. Statistical
  * detection scores candidate pairs by the fraction of rows consistent with
  * the FD; the LLM reviews whether a statistically strong FD is semantically
  * meaningful (by what the columns denote); for each violating group the LLM
  * resolves the correct value — or declines when the group has no confident
  * majority (the paper's Flights discussion: ambiguous groups are preserved
  * rather than guessed). Cleaning is a map lookup on the lhs, then on the
  * rhs ([[FdRepair]]).
  */
object FunctionalDeps {

  /** Least share of rows an FD must hold on to be repaired. */
  private val MinStrength = 0.3

  /** Violating groups resolved per FD, largest first. */
  private val MaxGroups = 600

  /** `columns` are the string columns an FD may relate; `df` is scored. */
  def step(df: DataFrame, columns: Seq[String], profile: TableProfile, llm: LLMClient): CleaningStep = {
    val rows = profile.rowCount

    // Semantic gate first (cheap), then one statistical scoring query over
    // the surviving pairs — same outcome as score-then-review. The lhs of a
    // useful FD must repeat (a key trivially determines everything).
    val candidatePairs = for {
      lhs <- columns
      rhs <- columns
      if lhs != rhs
      if profile(lhs).distinctCount > 1 && profile(lhs).distinctCount < rows * 0.9
      if llm.reviewFdMeaningful(lhs, rhs)
    } yield (lhs, rhs)

    val accepted = Profiler
      .scoreFds(df, candidatePairs, MaxGroups)
      .filter(fd => fd.strength >= MinStrength && fd.violatingGroups > 0)

    val casesByRhs: Map[String, Seq[FdCase]] = accepted
      .flatMap { fd =>
        fd.groups.flatMap { case (lhsVal, rhsValues) =>
          llm.resolveFdGroup(fd.lhs, fd.rhs, lhsVal, rhsValues).toSeq.flatMap { target =>
            rhsValues
              .filter(_.value != target)
              .map(rv => fd.rhs -> FdCase(fd.lhs, lhsVal, rv.value, target, rv.count))
          }
        }
      }
      .groupBy(_._1)
      .view
      .mapValues(_.map(_._2))
      .toMap

    // The invariants under which the nested map lookups of `FdRepair` pick
    // the arm a flat CASE over the sorted arms would. Neither side of a
    // guard is NULL: the scoring query drops rows with a NULL lhs or rhs.
    for ((rhs, cases) <- casesByRhs) {
      require(cases.map(c => (c.lhsCol, c.lhsVal, c.badRhs)).distinct.size == cases.size, s"$rhs: two FD arms share a guard")
      require(cases.forall(_.target != null), s"$rhs: an FD arm has a NULL target")
    }
    val rewrites = casesByRhs.toSeq.sortBy(_._1).map { case (rhs, cases) =>
      ColumnRewrite(
        rhs,
        FdRepair(cases.sortBy(c => (c.lhsCol, c.lhsVal, c.badRhs))),
        s"${cases.size} values violate a semantically meaningful functional dependency " +
          s"${cases.map(_.lhsCol).distinct.mkString("/")} → $rhs; repaired to the group-consistent value.",
      )
    }
    CleaningStep("functional-deps", rewrites)
  }
}
