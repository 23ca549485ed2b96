package repro.datasets

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random
import repro.llm.Knowledge

class ErrorInjectorSpec extends AnyFunSuite {
  import ErrorInjector._

  test("typoX replaces exactly one character with x") {
    val rnd = new Random(1)
    val t = typoX("10004", rnd).get
    assert(t.length == 5 && t.count(_ == 'x') == 1 && t != "10004")
  }

  test("typoX is Damerau distance 1 from the original") {
    val rnd = new Random(2)
    for (v <- Seq("Birmingham", "AMI-1", "American Airlines")) {
      val t = typoX(v, rnd).get
      assert(Knowledge.damerauWithin(t.toLowerCase, v.toLowerCase, 1) <= 1)
    }
  }

  test("typoX avoids the given domain values") {
    val rnd = new Random(3)
    val avoid = Set("1000x")
    val t = typoX("10004", rnd, avoid)
    assert(t.forall(v => !avoid(v)))
  }

  test("typoX returns None when nothing can change") {
    assert(typoX("x", new Random(4)).isEmpty)
  }

  test("dictTypo produces a typo that world knowledge maps back") {
    val rnd = new Random(5)
    for (w <- Seq("treatment", "chronic", "systematic", "randomized")) {
      val t = dictTypo(w, rnd)
      assert(t.forall(ty => Knowledge.confidentTypoFix(ty).contains(w)))
    }
  }

  test("dictTypo never returns the original word") {
    val rnd = new Random(6)
    (1 to 20).foreach { _ =>
      assert(!dictTypo("treatment", rnd).contains("treatment"))
    }
  }

  test("unusualToken is exactly distance 2 from the dictionary") {
    val rnd = new Random(7)
    val t = unusualToken("treatment", rnd)
    assert(t.isDefined)
    val cands = Knowledge.dictCandidates(t.get, 2)
    assert(cands.nonEmpty && cands.head._2 == 2)
    assert(Knowledge.confidentTypoFix(t.get).isEmpty) // conservative fixers skip it
  }

  test("otherValue returns a different domain element") {
    val rnd = new Random(8)
    (1 to 20).foreach { _ =>
      assert(otherValue(IndexedSeq("a", "b", "c"), "a", rnd) != "a")
    }
  }

  test("dmvToken draws from the DMV lexicon") {
    val rnd = new Random(9)
    (1 to 20).foreach { _ => assert(Knowledge.isDmv(dmvToken(rnd))) }
  }

  test("renderTime formats a.m./p.m. correctly") {
    assert(renderTime(0) == "12:00 a.m.")
    assert(renderTime(12 * 60 + 30) == "12:30 p.m.")
    assert(renderTime(22 * 60 + 31) == "10:31 p.m.")
    assert(renderTime(9 * 60 + 5) == "9:05 a.m.")
  }

  test("renderTime wraps around midnight") {
    assert(renderTime(1441) == "12:01 a.m.")
  }
}
