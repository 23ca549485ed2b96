package repro.llm

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.Seeded.{forAll => forAllSeeded}
import repro.util.SqlGen

/** Property-based coverage of the distance and SQL-quoting substrate, using
  * ScalaCheck generators with a fixed seed (see [[repro.Seeded]]).
  */
class PropertiesSpec extends AnyFunSuite {

  private val word: Gen[String] = Gen.alphaLowerStr.map(_.take(12))
  private val wordPair: Gen[(String, String)] = Gen.zip(word, word)

  test("levenshtein is symmetric") {
    forAllSeeded(wordPair) { case (a, b) =>
      assert(Levenshtein.distance(a, b) == Levenshtein.distance(b, a))
    }
  }

  test("levenshtein is zero iff equal") {
    forAllSeeded(wordPair) { case (a, b) =>
      assert((Levenshtein.distance(a, b) == 0) == (a == b))
    }
  }

  test("levenshtein satisfies the triangle inequality") {
    forAllSeeded(Gen.zip(word, word, word)) { case (a, b, c) =>
      assert(Levenshtein.distance(a, c) <= Levenshtein.distance(a, b) + Levenshtein.distance(b, c))
    }
  }

  test("levenshtein is bounded by the longer string") {
    forAllSeeded(wordPair) { case (a, b) =>
      assert(Levenshtein.distance(a, b) <= math.max(a.length, b.length))
    }
  }

  test("damerau never exceeds levenshtein") {
    forAllSeeded(wordPair) { case (a, b) =>
      assert(TypoReference.damerau(a, b) <= Levenshtein.distance(a, b))
    }
  }

  test("damerau is at least the length difference") {
    forAllSeeded(wordPair) { case (a, b) =>
      assert(TypoReference.damerau(a, b) >= math.abs(a.length - b.length))
    }
  }

  test("damerau of a single adjacent transposition is 1") {
    val gen = Gen.zip(word.suchThat(_.length >= 4), Gen.chooseNum(0, 100))
    forAllSeeded(gen, n = 100) { case (s, i0) =>
      val i = i0 % (s.length - 1)
      if (s(i) != s(i + 1)) {
        val t = s.updated(i, s(i + 1)).updated(i + 1, s(i))
        assert(TypoReference.damerau(s, t) == 1, s"$s vs $t")
      }
    }
  }

  test("single-character edits are distance 1") {
    forAllSeeded(word.suchThat(_.nonEmpty)) { s =>
      assert(TypoReference.damerau(s, s + "q") == 1)
      assert(TypoReference.damerau(s, s.tail) == 1)
    }
  }

  test("SQL literal quoting round-trips through naive unquoting") {
    forAllSeeded(Gen.asciiPrintableStr.map(_.take(30))) { s =>
      val lit = SqlGen.lit(s)
      assert(lit.startsWith("'") && lit.endsWith("'"))
      assert(lit.substring(1, lit.length - 1).replace("''", "'") == s)
    }
  }

  test("identifier quoting always wraps in backticks") {
    forAllSeeded(Gen.asciiPrintableStr.suchThat(_.nonEmpty)) { s =>
      val q = SqlGen.ident(s)
      assert(q.head == '`' && q.last == '`')
    }
  }

  test("duration parse/render round-trips in the min format") {
    forAllSeeded(Gen.chooseNum(1, 600), n = 100) { m =>
      assert(Knowledge.Duration.parseMinutes(s"$m min").contains(m))
      assert(Knowledge.Duration.render(s"$m min", "min").contains(s"$m min"))
    }
  }

  test("duration hr-min rendering is consistent with parsing") {
    forAllSeeded(Gen.chooseNum(60, 600), n = 100) { m =>
      val hrMin = Knowledge.Duration.render(s"$m min", "hr-min").get
      assert(Knowledge.Duration.parseMinutes(hrMin).contains(m), s"$m → $hrMin")
    }
  }

  test("date render is a bijection between the two formats") {
    forAllSeeded(Gen.zip(Gen.chooseNum(2000, 2030), Gen.chooseNum(1, 12), Gen.chooseNum(1, 28)), n = 100) {
      case (y, m, d) =>
        val slash = s"$m/$d/$y"
        val iso   = Knowledge.DateFmt.render(slash, "iso").get
        assert(Knowledge.DateFmt.render(iso, "mdy-slash").contains(slash))
    }
  }
}
