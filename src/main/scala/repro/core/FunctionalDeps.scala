package repro.core

import repro.llm.LLMClient
import repro.profile.{TableProfile, ValueCount}

/** A scored single-attribute FD candidate lhs → rhs (§2.1.6, after Baran).
  * `strength` is the share of rows (with both sides non-null) agreeing with
  * their lhs group's plurality rhs value — 1.0 means the FD holds exactly,
  * and a few corrupted cells per group only dent it proportionally (an
  * entropy-style measure, after [Beskales et al.]). `violatingGroups` counts
  * lhs groups with more than one rhs value; `groups` lists the largest of
  * them (by size, ties by lhs value, as [[ValueCount.ranked]] orders them),
  * in lhs order, each with its rhs values in [[ValueCount.ranked]] order.
  */
final case class FdScore(
    lhs: String,
    rhs: String,
    strength: Double,
    violatingGroups: Long,
    groups: Seq[(String, Seq[ValueCount])],
)

/** §2.1.6 Functional Dependencies.
  *
  * Following Baran, only single-attribute FDs are considered. The LLM reviews
  * which pairs are semantically meaningful FDs (by what the columns denote,
  * so once per run, up front); statistical detection scores those pairs by
  * the fraction of rows consistent with the FD, from the joint counts the
  * table profile took, with no query ([[scoreFds]]); for each violating
  * group the LLM resolves the correct value — or declines when the group has
  * no confident majority (the paper's Flights discussion: ambiguous groups
  * are preserved rather than guessed). Cleaning is a map lookup on the lhs,
  * then on the rhs ([[FdRepair]]).
  */
object FunctionalDeps {

  /** Least share of rows an FD must hold on to be repaired. */
  private val MinStrength = 0.3

  /** Violating groups resolved per FD, largest first. */
  private val MaxGroups = 600

  /** The ordered pairs of `columns`, the string columns an FD may relate,
    * that the LLM judges a meaningful FD lhs → rhs. The judgement reads only
    * the columns' names, so a run asks it once per pair, before any profile,
    * and the profile counts a table for each accepted pair's rhs over its
    * accepted lhs columns.
    */
  def meaningfulPairs(columns: Seq[String], llm: LLMClient): Seq[(String, String)] =
    for {
      lhs <- columns
      rhs <- columns
      if lhs != rhs
      if llm.reviewFdMeaningful(lhs, rhs)
    } yield (lhs, rhs)

  /** Scores `pairs`, the [[meaningfulPairs]], from the joint counts in
    * `profile`, which must have counted them, and asks the LLM to resolve
    * the violating groups of the strong ones.
    */
  def step(pairs: Seq[(String, String)], profile: TableProfile, llm: LLMClient): CleaningStep = {
    val rows = profile.rowCount

    // The lhs of a useful FD must repeat (a key trivially determines
    // everything), and must not be constant.
    val candidatePairs = pairs.filter { case (lhs, _) =>
      profile(lhs).distinctCount > 1 && profile(lhs).distinctCount < rows * 0.9
    }

    val accepted = scoreFds(profile, candidatePairs, MaxGroups)
      .filter(fd => fd.strength >= MinStrength && fd.violatingGroups > 0)

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

    // The invariants under which the nested map lookups of `FdRepair` pick
    // the arm a flat CASE over the sorted arms would. Neither side of a
    // guard is NULL: the profile's joint counts leave out rows with a NULL lhs
    // or rhs.
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

  /** Score every (lhs, rhs) pair from the joint counts the profile took —
    * the single-attribute partition refinement of TANE [Huhtala et al.] —
    * keeping up to `maxGroups` violating groups per pair. Returns one
    * [[FdScore]] per pair, in order, and runs no query: a table the profile
    * counted must hold every pair ([[TableProfile.joint]]).
    */
  def scoreFds(profile: TableProfile, pairs: Seq[(String, String)], maxGroups: Int): Seq[FdScore] =
    pairs.map { case (lhs, rhs) =>
      // Each lhs group's rhs values, most frequent first: the head is its plurality.
      val groups = profile.joint(lhs, rhs).toSeq
        .groupMap(_._1._1) { case ((_, rv), n) => ValueCount(rv, n) }
        .map { case (lv, vs) => lv -> vs.sorted(ValueCount.ranked) }
      val total = groups.values.map(_.map(_.count).sum).sum
      val agree = groups.values.map(_.head.count).sum
      val violating = groups.filter(_._2.size > 1)
      // The largest violating groups, size ties by lhs value, listed in lhs order.
      val kept = violating.map { case (lv, vs) => ValueCount(lv, vs.map(_.count).sum) }.toSeq.sorted(ValueCount.ranked).take(maxGroups)
      val strength = if (total == 0) 0.0 else agree.toDouble / total
      FdScore(lhs, rhs, strength, violating.size.toLong, kept.map(_.value).sorted.map(lv => lv -> groups(lv)))
    }
}
