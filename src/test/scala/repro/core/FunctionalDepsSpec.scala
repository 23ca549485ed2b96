package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.llm.{LLMClient, SimulatedLLM}
import repro.profile.{TableProfile, ValueCount}

class FunctionalDepsSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  /** The columns the pipeline gives a string stage: every string column. */
  private def strings(df: DataFrame) = CleaningStep.stringColumns(df, Set.empty)

  /** The FD step over `df` as a run takes it: the gate's pairs, counted by
    * the profile.
    */
  private def fdStep(df: DataFrame, llm: LLMClient = llm): CleaningStep = {
    val pairs = FunctionalDeps.meaningfulPairs(strings(df), llm)
    FunctionalDeps.step(pairs, TableProfile.of(df, pairs), llm)
  }

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
    val out = CleaningStep.apply(df, fdStep(df))
    assert(out.filter("city = 'Reno'").count() == 0)
    assert(out.filter("provider_id = '10001' AND city = 'Dothan'").count() == 20)
  }

  test("declines groups without a confident majority (Flights ambiguity)") {
    // 10 of 20 corrupted → majority share 0.5 < 0.6 → left alone.
    val df = providerDf(corrupt = 10)
    val step = fdStep(df)
    assert(CleaningStep.apply(df, step).filter("city = 'Reno'").count() == 10)
  }

  test("semantically meaningless FDs are rejected even when statistically strong") {
    val rows = (0 until 40).map(i => (s"s${i / 10}", if (i % 10 == 0) "odd" else "even"))
    val df = rows.toDF("score", "sample")
    assert(fdStep(df).isNoop)
  }

  test("exact FDs with no violations produce no step") {
    val df = providerDf(corrupt = 0)
    assert(fdStep(df).isNoop)
  }

  test("key-like lhs columns are skipped") {
    val rows = (0 until 20).map(i => (s"id$i", s"city$i"))
    val df = rows.toDF("provider_id", "city")
    assert(fdStep(df).isNoop)
  }

  test("constant lhs columns are skipped") {
    // One provider: its corrupted city would be a violation if a constant
    // column counted as an FD lhs.
    val df = (Seq.fill(19)(("10001", "Dothan")) :+ (("10001", "Reno"))).toDF("provider_id", "city")
    assert(fdStep(df).isNoop)
  }

  test("multiple FDs on the same rhs merge into one rewrite") {
    val rows = (0 until 40).map { i =>
      val p = if (i < 20) "10001" else "10004"
      val z = if (i < 20) "36000" else "36017"
      val city = if (i == 0) "Reno" else if (p == "10001") "Dothan" else "Boston"
      (p, z, city)
    }
    val df = rows.toDF("provider_id", "zip", "city")
    val step = fdStep(df)
    assert(step.rewrites.size == 1 && step.rewrites.head.column == "city")
    val out = CleaningStep.apply(df, step)
    assert(out.filter("city = 'Reno'").count() == 0)
  }

  test("violating-group cap bounds the rewrite size") {
    // 700 violating groups; at most 600 are resolved.
    val rows = (0 until 700).flatMap { g =>
      Seq.fill(4)((s"${10000 + g}", s"city$g")) :+ (s"${10000 + g}", "WRONG")
    }
    val df = rows.toDF("provider_id", "city")
    val step = fdStep(df)
    val fd = step.rewrites.head.rewrite.asInstanceOf[FdRepair]
    assert(fd.cases.size == 600)
  }

  /** The simulated LLM, recording every FD gate question it is asked. */
  private final class GateCounting extends LLMClient {
    private val inner = new SimulatedLLM()
    val asked = scala.collection.mutable.Buffer.empty[(String, String)]

    override def reviewFdMeaningful(lhs: String, rhs: String): Boolean = {
      asked += lhs -> rhs
      inner.reviewFdMeaningful(lhs, rhs)
    }
    override def reviewStringOutliers(column: String, values: Seq[ValueCount]) = inner.reviewStringOutliers(column, values)
    override def proposeStringMapping(column: String, unusual: Seq[String], context: Seq[ValueCount]) =
      inner.proposeStringMapping(column, unusual, context)
    override def reviewPatterns(column: String, values: Seq[ValueCount]) = inner.reviewPatterns(column, values)
    override def identifyDmv(column: String, values: Seq[ValueCount]) = inner.identifyDmv(column, values)
    override def suggestType(column: String, currentType: String, values: Seq[ValueCount]) =
      inner.suggestType(column, currentType, values)
    override def reviewNumericRange(column: String, min: Double, max: Double) = inner.reviewNumericRange(column, min, max)
    override def resolveFdGroup(lhs: String, rhs: String, lhsValue: String, rhsValues: Seq[ValueCount]) =
      inner.resolveFdGroup(lhs, rhs, lhsValue, rhsValues)
    override def duplicationAcceptable(tableDesc: String, duplicateRows: Long, totalRows: Long) =
      inner.duplicationAcceptable(tableDesc, duplicateRows, totalRows)
    override def shouldBeUnique(column: String, uniqueRatio: Double) = inner.shouldBeUnique(column, uniqueRatio)
  }

  test("the FD gate is asked once per ordered pair of string columns per run, and never by the FD stage") {
    // A key-like and a constant column: the lhs filter would skip both.
    val rows = (0 until 40).map { i =>
      (i.toLong, if (i < 20) "10001" else "10004", if (i == 0) "Reno" else if (i < 20) "Dothan" else "Boston", s"id$i", "US")
    }
    val df = rows.toDF("row_id", "provider_id", "city", "code", "country")
    val run = new GateCounting
    val res = CocoonPipeline.run(spark, df, run)
    assert(res.steps.map(_.issue).contains("functional-deps"))
    val cols = Seq("provider_id", "city", "code", "country")
    val ordered = for { l <- cols; r <- cols if l != r } yield (l, r)
    assert(run.asked == ordered)

    val stage = new GateCounting
    val pairs = FunctionalDeps.meaningfulPairs(cols, llm)
    assert(!FunctionalDeps.step(pairs, TableProfile.of(df, pairs), stage).isNoop)
    assert(stage.asked.isEmpty)
  }
}
