package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class DuplicationUniquenessSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  test("duplication: erroneous duplicates are dropped via SELECT DISTINCT") {
    val df = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
    val step = Duplication.step(df, TableProfile.of(df), llm, "customers").get
    assert(step.dropExactDuplicates)
    assert(CleaningStep.apply(spark, df, step).count() == 2)
  }

  test("duplication: log-like tables keep duplicates (semantic acceptance)") {
    val df = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
    assert(Duplication.step(df, TableProfile.of(df), llm, "sensor event log").isEmpty)
  }

  test("duplication: no duplicates, no step") {
    val df = Seq(("a", "1"), ("b", "2")).toDF("x", "y")
    assert(Duplication.step(df, TableProfile.of(df), llm, "customers").isEmpty)
  }

  test("uniqueness: near-unique key column deduped keeping latest by order column") {
    // 19 distinct keys over 20 rows: ratio 0.95 clears the uniqueness bar.
    val rows = (0 until 19).map(i => (s"k$i", s"2020-01-${10 + i}", "old")) :+
      (("k0", "2021-06-01", "new"))
    val df = rows.toDF("customer_id", "updated_at", "payload")
    val plan = Uniqueness.plan(df, TableProfile.of(df), llm).get
    assert(plan.keyCol == "customer_id" && plan.orderCol == "updated_at")
    val out = Uniqueness.apply(spark, df, plan)
    assert(out.count() == 19)
    assert(out.filter("customer_id = 'k0'").select("payload").collect().head.getString(0) == "new")
    assert(out.columns.toSeq == df.columns.toSeq)
  }

  test("uniqueness: fully unique key needs no plan") {
    val df = Seq(("k1", "a"), ("k2", "b")).toDF("customer_id", "v")
    assert(Uniqueness.plan(df, TableProfile.of(df), llm).isEmpty)
  }

  test("uniqueness: non-key columns are not deduped") {
    val df = Seq(("Boston", "a"), ("Boston", "b"), ("Denver", "c")).toDF("city", "v")
    assert(Uniqueness.plan(df, TableProfile.of(df), llm).isEmpty)
  }

  test("uniqueness: order column prefers time-like names") {
    assert(Uniqueness.pickOrderColumn(Seq("id", "name", "created_at"), "id") == "created_at")
    assert(Uniqueness.pickOrderColumn(Seq("id", "name"), "id") == "name")
  }

  test("uniqueness: key column below the ratio bar is left alone") {
    val df = (Seq.fill(10)(("k1", "x")) ++ Seq.fill(10)(("k2", "y"))).toDF("customer_id", "v")
    assert(Uniqueness.plan(df, TableProfile.of(df), llm).isEmpty)
  }
}
