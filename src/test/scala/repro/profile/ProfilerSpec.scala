package repro.profile

import org.apache.spark.sql.DataFrame
import repro.SparkSpec

class ProfilerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    ("a", "1", "x"), ("a", "1", "y"), ("a", "1", "x"),
    ("b", "2", "x"), ("b", "2", "y"), ("b", "3", "x"),
    (null, null, "x"),
  ).toDF("k", "v", "w")

  private lazy val profile = TableProfile.of(df)

  private def scoreFd(d: DataFrame, maxGroups: Int = 500): FdScore =
    Profiler.scoreFds(d, Seq("l" -> "r"), maxGroups).head

  test("profileColumn counts rows, nulls, distincts") {
    val p = profile("k")
    assert(p.rowCount == 7 && p.nullCount == 1 && p.distinctCount == 2)
    assert(profile.rowCount == 7)
  }

  test("profileColumn frequent values are ordered most-frequent first") {
    val p = profile("k")
    assert(p.frequentValues.map(_.value) == Seq("a", "b"))
    assert(p.frequentValues.map(_.count) == Seq(3L, 3L))
  }

  test("profileColumn caps the value list") {
    assert(TableProfile.of(df, maxValues = 2)("v").frequentValues.size == 2)
    assert(profile.frequentValues("v", 2) == profile("v").frequentValues.take(2))
  }

  test("profileColumn numeric stats over the parseable subset") {
    val p = profile("v")
    assert(p.minNumeric.contains(1.0) && p.maxNumeric.contains(3.0))
    assert(p.numericParseRate == 1.0)
  }

  test("profileColumn parse rate reflects non-numeric values") {
    val p = profile("k")
    assert(p.numericParseRate == 0.0 && p.minNumeric.isEmpty)
  }

  test("nullRate and uniqueRatio derive correctly") {
    val p = profile("k")
    assert(math.abs(p.nullRate - 1.0 / 7) < 1e-9)
    assert(math.abs(p.uniqueRatio - 2.0 / 7) < 1e-9)
  }

  test("a stage cannot read past the profile's value cap") {
    intercept[IllegalArgumentException](TableProfile.of(df, maxValues = 2).frequentValues("v", 3))
  }

  test("excluded columns are not profiled") {
    assert(TableProfile.of(df, exclude = Set("w")).columns.keySet == Set("k", "v"))
  }

  test("an all-null column and an empty table profile to zero counts") {
    val nulls = Seq[(String, String)](("a", null), ("b", null)).toDF("x", "y")
    assert(TableProfile.of(nulls)("y") == ColumnProfile("y", 2, 2, 0, Seq.empty, None, None, 0.0))
    val empty = TableProfile.of(nulls.limit(0))
    assert(empty.rowCount == 0 && empty("x") == ColumnProfile("x", 0, 0, 0, Seq.empty, None, None, 0.0))
  }

  test("a table with no profiled columns still counts its rows") {
    assert(TableProfile.of(df, exclude = Set("k", "v", "w")).rowCount == 7)
  }

  test("duplicateRowCount counts beyond-first duplicates") {
    val d = Seq(("a", 1), ("a", 1), ("a", 1), ("b", 2)).toDF("x", "y")
    assert(Profiler.duplicateRowCount(d, TableProfile.of(d)) == 2)
    assert(Profiler.duplicateRowCount(d.distinct(), TableProfile.of(d.distinct())) == 0)
  }

  test("scoreFd gives 1.0 on an exact FD") {
    val d = Seq(("a", "1"), ("a", "1"), ("b", "2")).toDF("l", "r")
    val fd = scoreFd(d)
    assert(fd.strength == 1.0 && fd.violatingGroups == 0 && fd.groups.isEmpty)
  }

  test("scoreFd plurality-agreement strength dents proportionally to violations") {
    // group a: 3 of 4 agree; group b: 2 of 2 agree → 5/6
    val d = Seq(("a", "1"), ("a", "1"), ("a", "1"), ("a", "9"), ("b", "2"), ("b", "2")).toDF("l", "r")
    val fd = scoreFd(d)
    assert(math.abs(fd.strength - 5.0 / 6) < 1e-9 && fd.violatingGroups == 1)
  }

  test("scoreFds scores every pair in one call, in order") {
    val d = Seq(("a", "1", "x"), ("a", "2", "x"), ("b", "3", "y")).toDF("l", "r", "s")
    val fds = Profiler.scoreFds(d, Seq("l" -> "r", "l" -> "s", "s" -> "l"), 10)
    assert(fds.map(f => (f.lhs, f.rhs)) == Seq("l" -> "r", "l" -> "s", "s" -> "l"))
    assert(fds.map(_.violatingGroups) == Seq(1L, 0L, 0L))
    assert(math.abs(fds.head.strength - 2.0 / 3) < 1e-9 && fds(1).strength == 1.0)
  }

  test("scoreFds on a pair with no non-null rows scores zero") {
    val d = Seq[(String, String)](("a", null), ("b", null)).toDF("l", "r")
    assert(scoreFd(d) == FdScore("l", "r", 0.0, 0L, Seq.empty))
  }

  test("fdViolatingGroups lists per-group rhs values most-frequent first") {
    val rows = Seq.fill(5)(("a", "1")) ++ Seq(("a", "2")) ++ Seq.fill(3)(("b", "9"))
    val d = rows.toDF("l", "r")
    val groups = scoreFd(d).groups
    assert(groups.size == 1)
    val (lhs, vals) = groups.head
    assert(lhs == "a" && vals.map(_.value) == Seq("1", "2") && vals.map(_.count) == Seq(5L, 1L))
  }

  test("fdViolatingGroups caps the number of groups") {
    val rows = (0 until 20).flatMap(i => Seq((s"g$i", "1"), (s"g$i", "2")))
    val d = rows.toDF("l", "r")
    val fd = scoreFd(d, maxGroups = 5)
    assert(fd.groups.size == 5 && fd.violatingGroups == 20)
  }

  test("the FD group cap keeps the largest groups and breaks size ties by lhs value") {
    // Ten violating groups of size 2 straddle the cap of 4; g9 is larger.
    val rows = (0 until 10).flatMap(i => Seq((s"g$i", "1"), (s"g$i", "2"))) ++ Seq(("g9", "3"))
    val d = rows.toDF("l", "r")
    assert(scoreFd(d, maxGroups = 4).groups.map(_._1) == Seq("g0", "g1", "g2", "g9"))
  }
}
