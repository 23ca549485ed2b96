package repro.util

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CleaningStep, MapToNull, MapValues, RangeClamp}
import repro.util.SqlGen.Dialect

class SqlGenSpec extends AnyFunSuite {

  test("lit quotes a plain string") { assert(SqlGen.lit("abc") == "'abc'") }
  test("lit doubles embedded single quotes") { assert(SqlGen.lit("O'Hare") == "'O''Hare'") }
  test("lit renders null as NULL") { assert(SqlGen.lit(null) == "NULL") }
  test("ident backtick-quotes") { assert(SqlGen.ident("col") == "`col`") }
  test("ident escapes backticks") { assert(SqlGen.ident("a`b") == "`a``b`") }
  test("identAnsi double-quotes") { assert(SqlGen.identAnsi("col") == "\"col\"") }
  test("identAnsi escapes double quotes") { assert(SqlGen.identAnsi("a\"b") == "\"a\"\"b\"") }

  test("mapLookup with empty mapping is the bare column") {
    assert(CleaningStep.renderExpr("c", MapValues(Seq.empty), Dialect.Spark) == "`c`")
    assert(CleaningStep.renderExpr("c", MapValues(Seq.empty), Dialect.DuckDb) == "\"c\"")
  }
  test("mapLookup renders a COALESCE over a lookup in a Spark map literal") {
    val sql = CleaningStep.renderExpr("c", MapValues(Seq("bad" -> "good")), Dialect.Spark)
    assert(sql == "COALESCE(element_at(map('bad', 'good'), `c`), `c`)")
  }
  test("mapLookup keeps the mapping's order and quotes every value") {
    val sql = CleaningStep.renderExpr("c", MapValues(Seq("a" -> "b", "O'Hare" -> "y")), Dialect.Spark)
    assert(sql == "COALESCE(element_at(map('a', 'b', 'O''Hare', 'y'), `c`), `c`)")
  }
  test("mapLookup renders DuckDB's MAP literal and list index") {
    val sql = CleaningStep.renderExpr("c", MapValues(Seq("bad" -> "good", "x" -> "y")), Dialect.DuckDb)
    assert(sql == "COALESCE(element_at(MAP {'bad': 'good', 'x': 'y'}, \"c\")[1], \"c\")")
  }
  test("caseWhenNull renders IN list") {
    val sql = CleaningStep.renderExpr("c", MapToNull(Seq("N/A", "-")), Dialect.Spark)
    assert(sql == "CASE WHEN `c` IN ('N/A', '-') THEN NULL ELSE `c` END")
  }
  test("caseWhenNull with no values is the bare column") {
    assert(CleaningStep.renderExpr("c", MapToNull(Seq.empty), Dialect.Spark) == "`c`")
  }
  test("caseWhenRange with both bounds") {
    val sql = CleaningStep.renderExpr("c", RangeClamp(Some(0.0), Some(10.0)), Dialect.Spark)
    assert(sql.contains("< 0.0") && sql.contains("> 10.0") && sql.contains("THEN NULL"))
  }
  test("caseWhenRange with only an upper bound") {
    val sql = CleaningStep.renderExpr("c", RangeClamp(None, Some(5.0)), Dialect.Spark)
    assert(!sql.contains("<") && sql.contains("> 5.0"))
  }
  test("caseWhenRange with no bounds is the bare column") {
    assert(CleaningStep.renderExpr("c", RangeClamp(None, None), Dialect.Spark) == "`c`")
  }
  test("comment flattens newlines") {
    assert(SqlGen.comment("a\nb") == "-- a b")
  }
}
