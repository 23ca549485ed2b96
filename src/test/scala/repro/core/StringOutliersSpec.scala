package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class StringOutliersSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  /** The columns the pipeline gives a string stage: every string column. */
  private def strings(df: DataFrame) = CleaningStep.stringColumns(df, Set.empty)

  test("fixes a frequency-grounded typo via CASE WHEN") {
    val df = (Seq.fill(20)("Birmingham") ++ Seq("Birmxngham")).toDF("city")
    val step = StringOutliers.step(strings(df), TableProfile.of(df), llm)
    val out = CleaningStep.apply(df, step)
    assert(out.filter("city = 'Birmxngham'").count() == 0)
    assert(out.filter("city = 'Birmingham'").count() == 21)
  }

  test("fixes language representation inconsistency to the dominant form") {
    val df = (Seq.fill(40)("eng") ++ Seq.fill(5)("English") ++ Seq.fill(20)("fre") ++ Seq.fill(3)("French"))
      .toDF("article_language")
    val out = CleaningStep.apply(df, StringOutliers.step(strings(df), TableProfile.of(df), llm))
    assert(out.filter("article_language IN ('English','French')").count() == 0)
    assert(out.filter("article_language = 'eng'").count() == 45)
  }

  test("no step on clean data") {
    val df = (Seq.fill(10)("Boston") ++ Seq.fill(12)("Denver")).toDF("city")
    assert(StringOutliers.step(strings(df), TableProfile.of(df), llm).isNoop)
  }

  test("excluded columns are never rewritten") {
    val df = (Seq.fill(20)("Birmingham") ++ Seq("Birmxngham")).toDF("city")
      .withColumnRenamed("city", "row_id")
    // The pipeline leaves the key out of the columns it gives a stage.
    assert(StringOutliers.step(strings(df).filterNot(_ == "row_id"), TableProfile.of(df), llm).isNoop)
  }

  test("dictionary typos in unique text values are fixed") {
    val titles = Seq("Effects of tretment on stroke", "Risk factors for diabetes")
    val df = titles.toDF("title")
    val out = CleaningStep.apply(df, StringOutliers.step(strings(df), TableProfile.of(df), llm))
    assert(out.filter("title = 'Effects of treatment on stroke'").count() == 1)
  }

  test("batching still covers all distinct values") {
    // 1000 distinct values, the most one column sends: the typo ranks last.
    val fillers = (1 to 998).flatMap(i => Seq.fill(2)(s"value_number_$i"))
    val df = (fillers ++ Seq.fill(20)("Birmingham") ++ Seq("Birmxngham")).toDF("c")
    assert(TableProfile.of(df)("c").frequentValues.indexWhere(_.value == "Birmxngham") == 999)
    val step = StringOutliers.step(strings(df), TableProfile.of(df), llm)
    val out = CleaningStep.apply(df, step)
    assert(out.filter("c = 'Birmxngham'").count() == 0)
  }

  test("non-string columns are ignored") {
    val df = Seq(1, 2, 3).toDF("n")
    assert(StringOutliers.step(strings(df), TableProfile.of(df), llm).isNoop)
  }

  test("state codes are never treated as typos of each other") {
    val df = (Seq.fill(100)("AL") ++ Seq.fill(5)("AK")).toDF("state")
    assert(StringOutliers.step(strings(df), TableProfile.of(df), llm).isNoop)
  }
}
