package repro.datasets

import scala.util.Random
import repro.llm.Knowledge

/** Deterministic cell-corruption primitives shared by the dataset generators.
  * Each mirrors an error class from the paper's benchmarks (Appendix B,
  * Table 2): 'x'-substitution typos as in Figure 5, single-edit dictionary
  * typos as in Rayyan titles, value swaps for FD violations, DMV tokens, and
  * value misplacement.
  */
object ErrorInjector {

  /** Replace one alphanumeric character with 'x' (the Hospital benchmark's
    * signature corruption: "10004" → "100x4", "Birmingham" → "Birmxngham").
    * Retries positions until the result differs from the original and from
    * every value in `avoid` (so the typo stays detectably rare).
    */
  def typoX(v: String, rnd: Random, avoid: Set[String] = Set.empty): Option[String] = {
    val positions = rnd.shuffle(v.indices.filter(i => v(i).isLetterOrDigit && v(i).toLower != 'x').toList)
    positions.iterator
      .map(i => v.updated(i, 'x'))
      .find(t => t != v && !avoid(t))
  }

  /** One-edit typo of a dictionary word: double a letter, drop a letter,
    * swap adjacent letters, or substitute one. Only returns edits that
    * [[Knowledge.confidentTypoFix]] maps back to the original — the typo must
    * be unambiguous world knowledge, as in "cofffee".
    */
  def dictTypo(word: String, rnd: Random): Option[String] = {
    val lower = word.toLowerCase
    def edits: Seq[String] = {
      val i = rnd.nextInt(math.max(1, word.length - 2)) + 1
      Seq(
        word.substring(0, i) + word(i) + word.substring(i),                    // double
        word.substring(0, i) + word.substring(i + 1),                          // drop
        word.substring(0, i) + word(math.min(i + 1, word.length - 1)) + word(i) +
          word.substring(math.min(i + 2, word.length)),                        // swap
        word.updated(i, if (word(i) == 'e') 'a' else 'e'),                     // substitute
      )
    }
    (1 to 12).iterator
      .flatMap(_ => edits)
      .find(t => t.toLowerCase != lower && Knowledge.confidentTypoFix(t.toLowerCase).contains(lower))
  }

  /** A token that is *legitimately* unusual: exactly distance 2 from the
    * nearest dictionary word, so an over-eager distance-2 corrector (the
    * RetClean failure mode) "fixes" it while a conservative distance-1 one
    * leaves it alone. Built from a dictionary word by appending two letters.
    */
  def unusualToken(seedWord: String, rnd: Random): Option[String] = {
    val suffixes = Seq("ux", "yx", "qa", "uz", "ox")
    rnd.shuffle(suffixes).iterator
      .map(s => seedWord + s)
      .find { t =>
        val cands = Knowledge.dictCandidates(t, 2)
        !Knowledge.dictionary.contains(t) && cands.nonEmpty && cands.head._2 == 2
      }
  }

  /** Pick an element of `domain` different from `not`. */
  def otherValue(domain: IndexedSeq[String], not: String, rnd: Random): String = {
    var v = domain(rnd.nextInt(domain.size))
    var guard = 0
    while (v == not && guard < 100) { v = domain(rnd.nextInt(domain.size)); guard += 1 }
    v
  }

  /** A disguised-missing-value token. */
  def dmvToken(rnd: Random): String = {
    val toks = IndexedSeq("N/A", "n/a", "NA", "null", "none", "-", "Not Available", "unknown", "empty")
    toks(rnd.nextInt(toks.size))
  }

  /** Clock time rendered the Flights way: "10:30 p.m.". */
  def renderTime(minutesOfDay: Int): String = {
    val m  = ((minutesOfDay % 1440) + 1440) % 1440
    val h24 = m / 60; val mm = m % 60
    val ap  = if (h24 < 12) "a.m." else "p.m."
    val h12 = { val h = h24 % 12; if (h == 0) 12 else h }
    f"$h12%d:$mm%02d $ap"
  }
}
