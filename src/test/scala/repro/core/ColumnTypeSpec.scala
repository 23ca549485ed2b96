package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class ColumnTypeSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  test("boolean column cast to canonical True/False") {
    val df = (Seq.fill(30)("yes") ++ Seq.fill(20)("no")).toDF("emergency_service")
    val out = CleaningStep.apply(spark, df, ColumnType.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("emergency_service = 'True'").count() == 30)
    assert(out.filter("emergency_service = 'False'").count() == 20)
  }

  test("duration column cast to total minutes as double text") {
    val df = (Seq.fill(40)("100 min") ++ Seq.fill(4)("2 hr")).toDF("duration")
    val out = CleaningStep.apply(spark, df, ColumnType.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("duration = '100.0'").count() == 40)
    assert(out.filter("duration = '120.0'").count() == 4)
  }

  test("rating column stripped of /10") {
    val df = (Seq.fill(30)("7.5/10") ++ Seq.fill(10)("8.1/10")).toDF("rating")
    val out = CleaningStep.apply(spark, df, ColumnType.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("rating = '7.5'").count() == 30)
  }

  test("pure numeric text yields no value rewrite (cast is artifact-only)") {
    val df = Seq("1994", "2001", "1987").toDF("year")
    assert(ColumnType.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("mixed text column untouched") {
    val df = Seq("Boston General", "Denver Memorial").toDF("name")
    assert(ColumnType.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("a single-valued yes column is not boolean (needs both values)") {
    val df = Seq.fill(10)("yes").toDF("flag")
    assert(ColumnType.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("unit-tagged quantities keep their type (the Beers ounces rule)") {
    val df = (Seq.fill(20)("12.0 oz") ++ Seq.fill(10)("16.0 oz")).toDF("ounces")
    assert(ColumnType.step(df, TableProfile.of(df), llm).isEmpty)
  }

  test("boolean cast tolerates sparse nulls") {
    val df = (Seq.fill(30)(Some("yes")) ++ Seq.fill(20)(Some("no")) ++ Seq(None)).toDF("flag")
    val out = CleaningStep.apply(spark, df, ColumnType.step(df, TableProfile.of(df), llm).get)
    assert(out.filter("flag IS NULL").count() == 1)
    assert(out.filter("flag = 'True'").count() == 30)
  }
}
