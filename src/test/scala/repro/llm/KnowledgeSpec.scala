package repro.llm

import org.scalatest.funsuite.AnyFunSuite

class KnowledgeSpec extends AnyFunSuite {
  import Knowledge._
  import Levenshtein.{distance => levenshtein}

  test("levenshtein of identical strings is 0") { assert(levenshtein("abc", "abc") == 0) }
  test("levenshtein counts substitutions") { assert(levenshtein("kitten", "sitten") == 1) }
  test("levenshtein counts insertions and deletions") {
    assert(levenshtein("abc", "abxc") == 1); assert(levenshtein("abc", "ab") == 1)
  }
  test("levenshtein of empty strings") { assert(levenshtein("", "abc") == 3) }
  test("levenshtein transposition costs 2") { assert(levenshtein("the", "hte") == 2) }
  test("damerau transposition costs 1") { assert(damerauWithin("the", "hte", 2) == 1) }
  test("damerau equals levenshtein without transpositions") {
    assert(damerauWithin("coffee", "cofffee", 2) == 1)
  }
  test("damerau symmetric") { assert(damerauWithin("abcd", "acbd", 3) == damerauWithin("acbd", "abcd", 3)) }

  test("languageConcept maps full names to codes") {
    assert(languageConcept("English").contains("eng"))
    assert(languageConcept("french").contains("fre"))
  }
  test("languageConcept maps codes to themselves") {
    assert(languageConcept("eng").contains("eng"))
    assert(languageConcept("chi").contains("chi"))
  }
  test("languageConcept rejects non-language strings") {
    assert(languageConcept("USA").isEmpty)
    assert(languageConcept("banana").isEmpty)
  }
  test("language example from the paper: eng and English share a concept") {
    assert(languageConcept("eng") == languageConcept("English"))
  }

  test("booleanConcept canonicalises yes/no") {
    assert(booleanConcept("yes").contains("True"))
    assert(booleanConcept("NO").contains("False"))
    assert(booleanConcept("maybe").isEmpty)
  }

  test("isDmv matches the missing-value lexicon case-insensitively") {
    assert(isDmv("N/A")); assert(isDmv("null")); assert(isDmv(" - "))
    assert(!isDmv("Boston"))
  }

  test("confidentTypoFix repairs a single-edit typo of a dictionary word") {
    assert(confidentTypoFix("cofffee").contains("coffee"))
    assert(confidentTypoFix("treatmnt").contains("treatment"))
  }
  test("confidentTypoFix ignores dictionary words") {
    assert(confidentTypoFix("coffee").isEmpty)
  }
  test("confidentTypoFix ignores short tokens") {
    assert(confidentTypoFix("teh").isEmpty)
  }
  test("confidentTypoFix ignores distance-2 tokens") {
    assert(confidentTypoFix("cofffeee").isEmpty)
  }

  test("Duration parses both formats to minutes") {
    assert(Duration.parseMinutes("100 min").contains(100))
    assert(Duration.parseMinutes("1 hr 40 min").contains(100))
    assert(Duration.parseMinutes("2 hr").contains(120))
    assert(Duration.parseMinutes("abc").isEmpty)
  }
  test("Duration formatOf distinguishes formats") {
    assert(Duration.formatOf("90 min").contains("min"))
    assert(Duration.formatOf("1 hr 30 min").contains("hr-min"))
  }
  test("Duration renders to the min format") {
    assert(Duration.render("1 hr 40 min", "min").contains("100 min"))
  }

  test("DateFmt parses slash and ISO formats") {
    assert(DateFmt.parseYmd("1/5/2009").contains((2009, 1, 5)))
    assert(DateFmt.parseYmd("2009-01-05").contains((2009, 1, 5)))
  }
  test("DateFmt renders across formats") {
    assert(DateFmt.render("2009-01-05", "mdy-slash").contains("1/5/2009"))
    assert(DateFmt.render("1/5/2009", "iso").contains("2009-01-05"))
  }

  test("Rating recognises and strips /10") {
    assert(Rating.formatOf("7.5/10").contains("of10"))
    assert(Rating.formatOf("7.5").contains("plain"))
    assert(Rating.render("7.5/10", "plain").contains("7.5"))
  }

  test("Volume recognises oz and ounce words") {
    assert(Volume.formatOf("12.0 oz").contains("oz"))
    assert(Volume.formatOf("12.0 ounce").contains("ounce-word"))
    assert(Volume.formatOf("12.0 ounces").contains("ounce-word"))
    assert(Volume.render("16.0 ounces", "oz").contains("16.0 oz"))
  }

  test("fdSemanticallyMeaningful accepts id-keyed pairs") {
    assert(fdSemanticallyMeaningful("provider_id", "city"))
    assert(fdSemanticallyMeaningful("brewery_id", "brewery_name"))
    assert(fdSemanticallyMeaningful("country", "language"))
    assert(fdSemanticallyMeaningful("flight", "act_arr_time"))
  }
  test("fdSemanticallyMeaningful rejects name-keyed and nonsense pairs") {
    assert(!fdSemanticallyMeaningful("brewery_name", "brewery_city"))
    assert(!fdSemanticallyMeaningful("score", "sample"))
    assert(!fdSemanticallyMeaningful("style", "ounces"))
  }

  test("plausibleRange by column-name keyword") {
    assert(plausibleRange("patient_age").contains((0.0, 125.0)))
    assert(plausibleRange("release_year").contains((1800.0, 2100.0)))
    assert(plausibleRange("whatever").isEmpty)
  }
}
