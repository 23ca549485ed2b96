package repro.llm

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.Seeded
import repro.profile.ValueCount

/** The simulated LLM's typo search gives [[TypoReference]]'s answers: the
  * bounded distance is the full one capped at `maxD + 1`, and the string
  * outlier prompts report and map the same values.
  */
class TypoSearchSpec extends AnyFunSuite {

  // Letters in both cases, digits and the separators of times and codes, so
  // that drawn strings differ by case, by digits only, or by a few edits.
  private val char = Gen.oneOf("aAbBcCxX019:. -".toSeq)
  private val base = Gen.chooseNum(0, 16).flatMap(Gen.listOfN(_, char)).map(_.mkString)

  /** `s` after up to three edits: substitution, insertion, deletion,
    * adjacent transposition or a case flip.
    */
  private def edited(s: String): Gen[String] = Gen.chooseNum(0, 3).flatMap { k =>
    (1 to k).foldLeft(Gen.const(s)) { (g, _) =>
      for {
        t  <- g
        i  <- Gen.chooseNum(0, t.length)
        c  <- char
        op <- Gen.chooseNum(0, 4)
      } yield op match {
        case 0 if i < t.length     => t.updated(i, c)
        case 1                     => t.take(i) + c + t.drop(i)
        case 2 if i < t.length     => t.take(i) + t.drop(i + 1)
        case 3 if i + 1 < t.length => t.take(i) + t(i + 1) + t(i) + t.drop(i + 2)
        case 4 if i < t.length     => t.updated(i, if (t(i).isUpper) t(i).toLower else t(i).toUpper)
        case _                     => t
      }
    }
  }

  test("damerauWithin is the full distance capped at maxD + 1") {
    val gen = for { a <- base; b <- Gen.oneOf(edited(a), base); k <- Gen.chooseNum(1, 3) } yield (a, b, k)
    var within = 0
    Seeded.forAll(gen, n = 2000) { case (a, b, k) =>
      val full = TypoReference.damerau(a, b)
      if (full <= k) within += 1
      assert(Knowledge.damerauWithin(a, b, k) == math.min(full, k + 1), s"$a vs $b at $k")
    }
    info(s"$within of 2000 pairs within maxD")
    assert(within >= 400, s"only $within of 2000 pairs within maxD")
  }

  /** A prompt's distinct values: a few bases, each with edited variants, and
    * rows drawn so that a variant is often 4 × rarer and targets often tie.
    */
  private val prompt: Gen[Seq[ValueCount]] = for {
    bases    <- Gen.chooseNum(1, 4).flatMap(Gen.listOfN(_, base.map("Col" + _)))
    variants <- Gen.sequence[Seq[String], String](bases.flatMap(b => Seq.fill(3)(edited(b))))
    rows     <- Gen.listOfN(bases.size + variants.size, Gen.oneOf(1L, 1L, 2L, 3L, 4L, 8L, 12L, 12L, 50L))
  } yield (bases ++ variants).distinct.zip(rows).map { case (v, n) => ValueCount(v, n) }.sorted(ValueCount.ranked)

  /** How many values could be `v`'s typo target at the least distance. */
  private def nearest(v: ValueCount, values: Seq[ValueCount]): Int = {
    val ds = values
      .filter(u => u.value != v.value && u.count >= 3 && u.count >= 4 * v.count)
      .map(u => TypoReference.damerau(u.value.toLowerCase, v.value.toLowerCase))
      .filter(d => d > 0 && d <= math.max(1, v.value.length / 6))
    ds.count(d => d == ds.min)
  }

  test("the string-outlier prompts report and map the reference's values") {
    val llm = new SimulatedLLM()
    var mapped, tied = 0
    Seeded.forAll(prompt, n = 400) { values =>
      val unusual = llm.reviewStringOutliers("col", values).unusualValues
      assert(unusual == TypoReference.unusual(llm, values), s"review of $values")
      val mapping = llm.proposeStringMapping("col", unusual, values)
      assert(mapping == TypoReference.proposed(llm, unusual, values), s"mapping of $values")
      // Every value offered alone, typo target or not, maps as in the reference.
      val each = values.map(_.value)
      assert(llm.proposeStringMapping("col", each, values) == TypoReference.proposed(llm, each, values), s"each of $values")
      mapped += mapping.size
      if (values.exists(v => nearest(v, values) > 1)) tied += 1
    }
    info(s"$mapped values mapped, $tied prompts with a tie")
    assert(mapped >= 200 && tied >= 20, s"only $mapped values mapped and $tied prompts with a tie")
  }
}
