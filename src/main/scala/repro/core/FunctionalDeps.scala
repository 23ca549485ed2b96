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
  * rather than guessed). Cleaning is a CASE WHEN on (lhs, rhs).
  */
object FunctionalDeps {

  def step(
      df: DataFrame,
      profile: TableProfile,
      llm: LLMClient,
      exclude: Set[String] = Set.empty,
      minStrength: Double = 0.3,
      maxGroups: Int = 600,
  ): Option[CleaningStep] = {
    val cols = StringOutliers.stringColumns(df, exclude)
    if (cols.size < 2) return None
    val rows = profile.rowCount
    if (rows == 0) return None

    // Semantic gate first (cheap), then one statistical scoring query over
    // the surviving pairs — same outcome as score-then-review. The lhs of a
    // useful FD must repeat (a key trivially determines everything).
    val candidatePairs = for {
      lhs <- cols
      rhs <- cols
      if lhs != rhs
      if profile(lhs).distinctCount > 1 && profile(lhs).distinctCount < rows * 0.9
      if llm.reviewFdMeaningful(lhs, rhs)
    } yield (lhs, rhs)

    val accepted = Profiler
      .scoreFds(df, candidatePairs, maxGroups)
      .filter(fd => fd.strength >= minStrength && fd.violatingGroups > 0)

    val casesByRhs: Map[String, Seq[FdCase]] = accepted
      .flatMap { fd =>
        fd.groups.flatMap { case (lhsVal, rhsValues) =>
          llm.resolveFdGroup(fd.lhs, fd.rhs, lhsVal, rhsValues).toSeq.flatMap { target =>
            rhsValues
              .filter(_.value != target)
              .map(rv => fd.rhs -> FdCase(fd.lhs, lhsVal, rv.value, target))
          }
        }
      }
      .groupBy(_._1)
      .view
      .mapValues(_.map(_._2))
      .toMap

    val rewrites = casesByRhs.toSeq.sortBy(_._1).map { case (rhs, cases) =>
      ColumnRewrite(
        rhs,
        FdRepair(cases.sortBy(c => (c.lhsCol, c.lhsVal, c.badRhs))),
        s"${cases.size} values violate a semantically meaningful functional dependency " +
          s"${cases.map(_.lhsCol).distinct.mkString("/")} → $rhs; repaired to the group-consistent value.",
      )
    }
    if (rewrites.isEmpty) None else Some(CleaningStep("functional-dependencies", rewrites))
  }
}
