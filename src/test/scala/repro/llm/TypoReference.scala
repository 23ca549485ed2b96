package repro.llm

import repro.profile.ValueCount

/** The simulated LLM's typo search as it was first written, kept as the
  * reference its faster form must agree with: a full-matrix Damerau
  * distance, and a typo target found by scoring every value of the context
  * and sorting the candidates.
  */
object TypoReference {

  /** Restricted Damerau–Levenshtein over the full (m + 1) × (n + 1) matrix. */
  def damerau(a: String, b: String): Int = {
    val m = a.length; val n = b.length
    if (m == 0) return n
    if (n == 0) return m
    val d = Array.ofDim[Int](m + 1, n + 1)
    for (i <- 0 to m) d(i)(0) = i
    for (j <- 0 to n) d(0)(j) = j
    for (i <- 1 to m; j <- 1 to n) {
      val cost = if (a.charAt(i - 1) == b.charAt(j - 1)) 0 else 1
      d(i)(j) = math.min(math.min(d(i - 1)(j) + 1, d(i)(j - 1) + 1), d(i - 1)(j - 1) + cost)
      if (i > 1 && j > 1 && a.charAt(i - 1) == b.charAt(j - 2) && a.charAt(i - 2) == b.charAt(j - 1))
        d(i)(j) = math.min(d(i)(j), d(i - 2)(j - 2) + 1)
    }
    d(m)(n)
  }

  private def digitOnlyDiff(a: String, b: String): Boolean =
    a.length == b.length && a.zip(b).forall { case (x, y) => x == y || (x.isDigit && y.isDigit) } && a != b

  private def numericLike(s: String): Boolean =
    s.nonEmpty && s.exists(_.isDigit) && s.forall(ch => ch.isDigit || ".:-/ ".contains(ch))

  /** The nearest value with at least 3 rows and 4 × `v`'s, if no other is as near. */
  def frequentTypoTarget(v: ValueCount, context: Seq[ValueCount]): Option[String] = {
    if (v.value.length < 3 || Knowledge.isKnownValidToken(v.value) || numericLike(v.value)) return None
    val maxD = math.max(1, v.value.length / 6)
    val lower = v.value.toLowerCase
    val cands = context
      .filter(u => u.value != v.value && u.count >= v.count * 4 && u.count >= 3)
      .filter(u => math.abs(u.value.toLowerCase.length - lower.length) <= maxD)
      .filterNot(u => digitOnlyDiff(lower, u.value.toLowerCase))
      .map(u => (u, damerau(lower, u.value.toLowerCase)))
      .filter { case (_, d) => d > 0 && d <= maxD }
      .sortBy { case (u, d) => (d, -u.count, u.value) }
    cands match {
      case Seq()          => None
      case Seq((u, _))    => Some(u.value)
      case (u, d) +: rest => if (rest.exists(_._2 == d)) None else Some(u.value)
    }
  }

  private def mapping(llm: SimulatedLLM, v: ValueCount, context: Seq[ValueCount]): Option[String] =
    llm.conceptTarget(v, context).orElse(frequentTypoTarget(v, context)).orElse(llm.dictionaryFix(v.value))

  /** The unusual values [[SimulatedLLM.reviewStringOutliers]] reports. */
  def unusual(llm: SimulatedLLM, values: Seq[ValueCount]): Seq[String] =
    values.filter(v => mapping(llm, v, values).isDefined).map(_.value)

  /** The mapping [[SimulatedLLM.proposeStringMapping]] proposes. */
  def proposed(llm: SimulatedLLM, unusual: Seq[String], context: Seq[ValueCount]): Map[String, String] = {
    val byValue = context.map(v => v.value -> v).toMap
    unusual.flatMap(u => mapping(llm, byValue.getOrElse(u, ValueCount(u, 1L)), context).map(u -> _)).toMap
  }
}
