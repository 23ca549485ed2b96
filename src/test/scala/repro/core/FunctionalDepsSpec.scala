package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class FunctionalDepsSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  /** The columns the pipeline gives a string stage: every string column. */
  private def strings(df: DataFrame) = CleaningStep.stringColumns(df, Set.empty)

  private def providerDf(corrupt: Int) = {
    val rows = (0 until 40).map { i =>
      val p = if (i < 20) "10001" else "10004"
      val city = if (p == "10001") "Dothan" else "Boston"
      (p, if (i < corrupt) "Reno" else city)
    }
    rows.toDF("provider_id", "city")
  }

  test("repairs a confident violating group to the majority value") {
    val df = providerDf(corrupt = 3)
    val out = CleaningStep.apply(spark, df, FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm))
    assert(out.filter("city = 'Reno'").count() == 0)
    assert(out.filter("provider_id = '10001' AND city = 'Dothan'").count() == 20)
  }

  test("declines groups without a confident majority (Flights ambiguity)") {
    // 10 of 20 corrupted → majority share 0.5 < 0.6 → left alone.
    val df = providerDf(corrupt = 10)
    val step = FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm)
    assert(CleaningStep.apply(spark, df, step).filter("city = 'Reno'").count() == 10)
  }

  test("semantically meaningless FDs are rejected even when statistically strong") {
    val rows = (0 until 40).map(i => (s"s${i / 10}", if (i % 10 == 0) "odd" else "even"))
    val df = rows.toDF("score", "sample")
    assert(FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm).isNoop)
  }

  test("exact FDs with no violations produce no step") {
    val df = providerDf(corrupt = 0)
    assert(FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm).isNoop)
  }

  test("key-like lhs columns are skipped") {
    val rows = (0 until 20).map(i => (s"id$i", s"city$i"))
    val df = rows.toDF("provider_id", "city")
    assert(FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm).isNoop)
  }

  test("constant lhs columns are skipped") {
    // One provider: its corrupted city would be a violation if a constant
    // column counted as an FD lhs.
    val df = (Seq.fill(19)(("10001", "Dothan")) :+ (("10001", "Reno"))).toDF("provider_id", "city")
    assert(FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm).isNoop)
  }

  test("multiple FDs on the same rhs merge into one rewrite") {
    val rows = (0 until 40).map { i =>
      val p = if (i < 20) "10001" else "10004"
      val z = if (i < 20) "36000" else "36017"
      val city = if (i == 0) "Reno" else if (p == "10001") "Dothan" else "Boston"
      (p, z, city)
    }
    val df = rows.toDF("provider_id", "zip", "city")
    val step = FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm)
    assert(step.rewrites.size == 1 && step.rewrites.head.column == "city")
    val out = CleaningStep.apply(spark, df, step)
    assert(out.filter("city = 'Reno'").count() == 0)
  }

  test("violating-group cap bounds the rewrite size") {
    // 700 violating groups; at most 600 are resolved.
    val rows = (0 until 700).flatMap { g =>
      Seq.fill(4)((s"${10000 + g}", s"city$g")) :+ (s"${10000 + g}", "WRONG")
    }
    val df = rows.toDF("provider_id", "city")
    val step = FunctionalDeps.step(df, strings(df), TableProfile.of(df), llm)
    val fd = step.rewrites.head.rewrite.asInstanceOf[FdRepair]
    assert(fd.cases.size == 600)
  }
}
