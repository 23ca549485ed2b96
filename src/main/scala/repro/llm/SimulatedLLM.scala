package repro.llm

import repro.profile.ValueCount

/** The answer to the Figure-2 prompt: is anything semantically unusual? */
final case class StringReview(unusual: Boolean, unusualValues: Seq[String], reasoning: String)

/** A recognised multi-format column: the family plus per-format value share. */
final case class PatternReview(familyName: String, formatShares: Map[String, Long], reasoning: String)

/** Suggested semantic column type with an optional value-rewrite kind. */
final case class TypeSuggestion(targetType: String, rewriteKind: String, reasoning: String)

/** Interface between Cocoon and the language model — one method per prompt in
  * the paper (§2.1.1–§2.1.8, Figures 2–3). Cocoon only ever sees this trait,
  * so a real API-backed client could be dropped in; the reproduction wires in
  * [[SimulatedLLM]], a deterministic stand-in grounded in [[Knowledge]].
  */
trait LLMClient {

  /** Figure 2 — review one batch of a column's distinct values for typos and
    * inconsistent representations.
    */
  def reviewStringOutliers(column: String, values: Seq[ValueCount]): StringReview

  /** Figure 3 — map each unusual value to its correct form, given the full
    * frequency context. `None` in the map value domain is never emitted; an
    * unmappable value is simply absent (the LLM "could not determine").
    */
  def proposeStringMapping(column: String, unusual: Seq[String], context: Seq[ValueCount]): Map[String, String]

  /** §2.1.2 — recognise whether the column's values follow a small set of
    * semantically meaningful patterns with inconsistent surface formats.
    */
  def reviewPatterns(column: String, values: Seq[ValueCount]): Option[PatternReview]

  /** §2.1.3 — which of these values are disguised missing values? */
  def identifyDmv(column: String, values: Seq[ValueCount]): Seq[String]

  /** §2.1.4 — most suitable semantic type for the column, if a cast is
    * warranted (boolean-looking text, numeric-with-unit, etc.).
    */
  def suggestType(column: String, currentType: String, values: Seq[ValueCount]): Option[TypeSuggestion]

  /** §2.1.5 — semantically acceptable (lo, hi) given observed min/max. A
    * NaN max is above every range, as Spark's `>` compares it.
    */
  def reviewNumericRange(column: String, min: Double, max: Double): Option[(Double, Double)]

  /** §2.1.6 — is this statistically strong FD semantically meaningful? */
  def reviewFdMeaningful(lhs: String, rhs: String): Boolean

  /** §2.1.6 — for one violating group, the correct rhs value, or None when
    * the group is too ambiguous to resolve (no clear majority).
    */
  def resolveFdGroup(lhs: String, rhs: String, lhsValue: String, rhsValues: Seq[ValueCount]): Option[String]

  /** §2.1.7 — are exact duplicate rows semantically acceptable here? */
  def duplicationAcceptable(tableDesc: String, duplicateRows: Long, totalRows: Long): Boolean

  /** §2.1.8 — should this column be unique, given its name and unique ratio? */
  def shouldBeUnique(column: String, uniqueRatio: Double): Boolean
}

/** Deterministic semantic engine standing in for Claude 3.5.
  *
  * Every judgement mirrors what the paper reports the LLM doing, computed
  * from [[Knowledge]] instead of a neural model:
  *   - typo detection by (a) rare value within Damerau distance 1–2 of a much
  *     more frequent value in the same column (frequency-grounded, like an
  *     LLM reading the profile), or (b) a token one edit from a unique
  *     dictionary word (context-free world knowledge);
  *   - inconsistent representations via concept canonicalisation (language
  *     names vs codes, unit words, boolean words);
  *   - DMV via the missing-value lexicon;
  *   - FD meaningfulness via column-name semantics, group resolution via a
  *     confidence threshold on the majority share (the paper's Flights
  *     discussion: ambiguous groups are left alone).
  */
final class SimulatedLLM extends LLMClient {

  /** Minimum share of the most frequent rhs value in a violating group for
    * the LLM to commit to a repair; below it the group is reported ambiguous
    * (drives Flights' high-P/low-R).
    */
  private val FdMajorityThreshold = 0.65

  /** Minimum frequency ratio between a canonical value and a variant for the
    * variant to be judged a typo of it.
    */
  private val TypoFreqRatio = 4L

  /** Numeric text: an optional minus, digits and an optional fraction. */
  private val Numeric = """-?\d+(\.\d+)?""".r

  private def conceptOf(v: String): Option[String] = Knowledge.languageConcept(v)

  /** Two same-length values whose differing characters are all digit-vs-digit
    * are alternative numbers ("10:31" vs "10:30"), not typos — an LLM knows
    * numeric disagreement is not a spelling error.
    */
  private def digitOnlyDiff(a: String, b: String): Boolean =
    a.length == b.length && a != b && a.indices.forall { i =>
      val (x, y) = (a.charAt(i), b.charAt(i))
      x == y || (x.isDigit && y.isDigit)
    }

  /** Purely numeric-ish values (counts, times, zips, phones) — two different
    * numbers are alternatives, never typos of each other.
    */
  private def numericLike(s: String): Boolean =
    s.nonEmpty && s.exists(_.isDigit) && s.forall(ch => ch.isDigit || ".:-/ ".contains(ch))

  /** The values of one prompt's context a typo may target, each with its
    * lower-cased text: those with at least 3 rows, most rows first. Built
    * once per prompt, so each value scans only the prefix with enough rows.
    */
  private def typoTargets(context: Seq[ValueCount]): Seq[(ValueCount, String)] =
    context.filter(_.count >= 3).sortBy(-_.count).map(u => u -> u.value.toLowerCase)

  /** Typo target for `v` among more frequent values of the same column: the
    * one nearest by Damerau distance, at most `maxD`, if no other is as near.
    * Values shorter than 3 characters or in a known-valid vocabulary (state
    * codes, language codes) are never typos — world knowledge over statistics.
    */
  private def frequentTypoTarget(v: ValueCount, targets: Seq[(ValueCount, String)]): Option[String] = {
    if (v.value.length < 3 || Knowledge.isKnownValidToken(v.value) || numericLike(v.value)) return None
    val maxD  = math.max(1, v.value.length / 6)
    val lower = v.value.toLowerCase
    val near = targets.iterator
      .takeWhile(_._1.count >= v.count * TypoFreqRatio)
      // the edit distance is at least the length difference
      .filter { case (u, l) => u.value != v.value && math.abs(l.length - lower.length) <= maxD && !digitOnlyDiff(lower, l) }
      .map { case (u, l) => u.value -> Knowledge.damerauWithin(lower, l, maxD) }
      .filter { case (_, d) => d > 0 && d <= maxD }
      .toSeq
    // commit only when the best target is unambiguous
    near.map(_._2).minOption.map(d => near.filter(_._2 == d)).collect { case Seq((u, _)) => u }
  }

  /** Dictionary-based typo fix across the tokens of a free-text value.
    * Only fires when the value is mostly made of known vocabulary — a model
    * only recognises "tretment" as a typo inside text it can read; it does
    * not "correct" proper nouns in a domain it has no coverage of
    * ("River Trail Brewing" stays put).
    */
  private[llm] def dictionaryFix(v: String): Option[String] = {
    val toks = v.split(" ", -1)
    val wordToks = toks.filter(t => t.length >= 3 && t.forall(_.isLetter))
    val coverage =
      if (wordToks.isEmpty) 0.0
      else wordToks.count(t => Knowledge.dictionary.contains(t.toLowerCase)).toDouble / wordToks.length
    if (coverage < 0.6) return None
    var changed = false
    val fixed = toks.map { t =>
      val lower = t.toLowerCase
      Knowledge.confidentTypoFix(lower) match {
        case Some(w) =>
          changed = true
          if (t.nonEmpty && t.head.isUpper) w.capitalize else w
        case _ => t
      }
    }
    if (changed) Some(fixed.mkString(" ")) else None
  }

  /** The concept-synonym target: map `v` to the most frequent value sharing
    * its concept (e.g. "English" → "eng" when "eng" dominates).
    */
  private[llm] def conceptTarget(v: ValueCount, context: Seq[ValueCount]): Option[String] =
    conceptOf(v.value).flatMap { c =>
      context
        .filter(u => u.value != v.value && conceptOf(u.value).contains(c))
        .sortBy(u => (-u.count, u.value))
        .headOption
        .filter(_.count > v.count)
        .map(_.value)
    }

  private def mappingFor(v: ValueCount, context: Seq[ValueCount], targets: Seq[(ValueCount, String)]): Option[String] =
    conceptTarget(v, context)
      .orElse(frequentTypoTarget(v, targets))
      .orElse(dictionaryFix(v.value))

  override def reviewStringOutliers(column: String, values: Seq[ValueCount]): StringReview = {
    val targets = typoTargets(values)
    val unusual = values.filter(v => mappingFor(v, values, targets).isDefined).map(_.value)
    if (unusual.isEmpty)
      StringReview(unusual = false, Seq.empty, s"The values of $column look consistent; no typos or redundant representations found.")
    else
      StringReview(
        unusual = true,
        unusual,
        s"${unusual.size} values in $column are unusual: they are typos of, or redundant representations of, more common values.",
      )
  }

  override def proposeStringMapping(column: String, unusual: Seq[String], context: Seq[ValueCount]): Map[String, String] = {
    val byValue = context.map(v => v.value -> v).toMap
    val targets = typoTargets(context)
    unusual.flatMap { u =>
      val vc = byValue.getOrElse(u, ValueCount(u, 1L))
      mappingFor(vc, context, targets).map(u -> _)
    }.toMap
  }

  override def reviewPatterns(column: String, values: Seq[ValueCount]): Option[PatternReview] = {
    val nonNull = values.filter(_.value != null)
    val total   = nonNull.map(_.count).sum
    if (total == 0) return None
    Knowledge.formatFamilies.iterator
      .map { fam =>
        val byFormat = nonNull
          .flatMap(v => fam.formatOf(v.value).map(f => (f, v.count)))
          .groupBy(_._1).view.mapValues(_.map(_._2).sum).toMap
        (fam, byFormat)
      }
      .find { case (_, byFormat) =>
        val covered = byFormat.values.sum
        byFormat.size >= 2 && covered >= (total * 0.8).toLong && covered > 0
      }
      .map { case (fam, byFormat) =>
        PatternReview(
          fam.name,
          byFormat,
          s"$column holds ${fam.name} values in ${byFormat.size} inconsistent formats; standardise to the dominant one.",
        )
      }
  }

  override def identifyDmv(column: String, values: Seq[ValueCount]): Seq[String] =
    values.map(_.value).filter(v => v != null && Knowledge.isDmv(v))

  override def suggestType(column: String, currentType: String, values: Seq[ValueCount]): Option[TypeSuggestion] = {
    val nonNull = values.filter(_.value != null)
    val total   = nonNull.map(_.count).sum
    if (total == 0) return None
    def share(p: String => Boolean): Double =
      nonNull.filter(v => p(v.value)).map(_.count).sum.toDouble / total

    val boolShare   = share(v => Knowledge.booleanConcept(v).isDefined)
    val durShare    = share(v => Knowledge.Duration.formatOf(v).isDefined)
    val ratingShare = share(v => Knowledge.Rating.formatOf(v).contains("of10"))
    val numShare    = share(v => Numeric.matches(v.trim))
    if (boolShare >= 0.95 && nonNull.map(_.value).distinct.size >= 2)
      Some(TypeSuggestion("BOOLEAN", "boolean", s"$column holds yes/no style values; semantically a boolean."))
    else if (durShare >= 0.95)
      Some(TypeSuggestion("DOUBLE", "duration-minutes", s"$column holds time durations; semantically a number of minutes."))
    else if (ratingShare >= 0.95)
      Some(TypeSuggestion("DOUBLE", "rating-number", s"$column holds x/10 ratings; semantically a number."))
    else if (numShare >= 0.99 && currentType.equalsIgnoreCase("string"))
      Some(TypeSuggestion("DOUBLE", "numeric-cast", s"$column is entirely numeric text; cast to a numeric type."))
    else None
  }

  override def reviewNumericRange(column: String, min: Double, max: Double): Option[(Double, Double)] =
    Knowledge.plausibleRange(column).filter { case (lo, hi) => min < lo || max > hi || max.isNaN }

  override def reviewFdMeaningful(lhs: String, rhs: String): Boolean =
    Knowledge.fdSemanticallyMeaningful(lhs, rhs)

  override def resolveFdGroup(lhs: String, rhs: String, lhsValue: String, rhsValues: Seq[ValueCount]): Option[String] = {
    val total = rhsValues.map(_.count).sum
    // Tiny groups (e.g. two colliding typo'd keys) carry no evidence of
    // which value is correct — decline rather than guess.
    if (total < 4) None
    else {
      val top = rhsValues.maxBy(v => (v.count, v.value))
      if (top.count.toDouble / total >= FdMajorityThreshold) Some(top.value) else None
    }
  }

  override def duplicationAcceptable(tableDesc: String, duplicateRows: Long, totalRows: Long): Boolean = {
    // Heuristic mirror of the paper's example: coarse-grained logs legitimately
    // repeat; elsewhere a small fraction of exact duplicates is erroneous.
    val desc = tableDesc.toLowerCase
    desc.contains("log") || desc.contains("event") || duplicateRows == 0
  }

  override def shouldBeUnique(column: String, uniqueRatio: Double): Boolean = {
    val c = column.toLowerCase
    val keyish = c == "id" || c.endsWith("_id") || c.endsWith("key") || c.contains("row_id")
    keyish && uniqueRatio >= 0.95
  }
}
