package repro.core

import repro.SparkSpec
import repro.llm.SimulatedLLM
import repro.profile.TableProfile

class DuplicationUniquenessSpec extends SparkSpec {
  import spark.implicits._

  private val llm = new SimulatedLLM()

  private def keyAndOrder(step: CleaningStep) = step.rows match {
    case KeepFirstPerKey(key, ord, _, _) => (key, ord)
    case other                           => fail(s"not a per-key dedupe: $other")
  }

  test("duplication: erroneous duplicates are dropped via SELECT DISTINCT") {
    val df = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
    val step = Duplication.step(df, TableProfile.of(df), llm, "customers")
    assert(step.rows.isInstanceOf[DistinctRows])
    assert(CleaningStep.apply(df, step).count() == 2)
  }

  test("duplication: log-like tables keep duplicates (semantic acceptance)") {
    val df = (Seq.fill(3)(("a", "1")) ++ Seq(("b", "2"))).toDF("x", "y")
    assert(Duplication.step(df, TableProfile.of(df), llm, "sensor event log").isNoop)
  }

  test("duplication: no duplicates, no step") {
    val df = Seq(("a", "1"), ("b", "2")).toDF("x", "y")
    assert(Duplication.step(df, TableProfile.of(df), llm, "customers").isNoop)
  }

  test("uniqueness: near-unique key column deduped keeping latest by order column") {
    // 19 distinct keys over 20 rows: ratio 0.95 clears the uniqueness bar.
    val rows = (0 until 19).map(i => (s"k$i", s"2020-01-${10 + i}", "old")) :+
      (("k0", "2021-06-01", "new"))
    val df = rows.toDF("customer_id", "updated_at", "payload")
    val step = Uniqueness.step(df.columns.toSeq, TableProfile.of(df), llm)
    assert(keyAndOrder(step) == ("customer_id", "updated_at"))
    val out = CleaningStep.apply(df, step)
    assert(out.count() == 19)
    assert(out.filter("customer_id = 'k0'").select("payload").collect().head.getString(0) == "new")
    assert(out.columns.toSeq == df.columns.toSeq)
  }

  test("uniqueness: ties in the order column go to the lowest row key under any partitioning") {
    // k0 appears twice with the same updated_at; only the row key separates them.
    val rows = (0 until 19).map(i => (i.toLong + 10, s"k$i", s"2020-01-${10 + i}", "old")) :+
      ((3L, "k0", "2020-01-10", "tied"))
    val df = rows.toDF("row_id", "customer_id", "updated_at", "payload")
    val step = Uniqueness.step(df.columns.toSeq, TableProfile.of(df), llm, Some("row_id"))
    assert(keyAndOrder(step) == ("customer_id", "updated_at"))
    def survivor(in: org.apache.spark.sql.DataFrame) =
      CleaningStep.apply(in, step).filter("customer_id = 'k0'").select("row_id", "payload").collect().toSeq
    val one  = survivor(df.repartition(1))
    val many = survivor(df.repartition(7, $"row_id").sortWithinPartitions($"row_id".desc))
    assert(one.map(r => (r.getLong(0), r.getString(1))) == Seq((3L, "tied")))
    assert(many == one)
  }

  test("uniqueness: fully unique key needs no plan") {
    val df = Seq(("k1", "a"), ("k2", "b")).toDF("customer_id", "v")
    assert(Uniqueness.step(df.columns.toSeq, TableProfile.of(df), llm).isNoop)
  }

  test("uniqueness: non-key columns are not deduped") {
    val df = Seq(("Boston", "a"), ("Boston", "b"), ("Denver", "c")).toDF("city", "v")
    assert(Uniqueness.step(df.columns.toSeq, TableProfile.of(df), llm).isNoop)
  }

  test("uniqueness: order column prefers time-like names") {
    assert(Uniqueness.pickOrderColumn(Seq("id", "name", "created_at"), "id") == "created_at")
    assert(Uniqueness.pickOrderColumn(Seq("id", "name"), "id") == "name")
  }

  test("uniqueness: key column below the ratio bar is left alone") {
    val df = (Seq.fill(10)(("k1", "x")) ++ Seq.fill(10)(("k2", "y"))).toDF("customer_id", "v")
    assert(Uniqueness.step(df.columns.toSeq, TableProfile.of(df), llm).isNoop)
  }
}
