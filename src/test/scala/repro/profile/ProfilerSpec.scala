package repro.profile

import java.sql.{Date, Timestamp}
import java.time.Instant

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.SortExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.window.WindowExec
import org.apache.spark.unsafe.types.UTF8String
import repro.SparkSpec
import repro.JobCounting._
import repro.core.{Duplication, FdScore, FunctionalDeps}

class ProfilerSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    ("a", "1", "x"), ("a", "1", "y"), ("a", "1", "x"),
    ("b", "2", "x"), ("b", "2", "y"), ("b", "3", "x"),
    (null, null, "x"),
  ).toDF("k", "v", "w")

  private lazy val profile = TableProfile.of(df)

  /** Score `pairs` of `d` from a profile that counted them. */
  private def scoreFds(d: DataFrame, pairs: Seq[(String, String)], maxGroups: Int): Seq[FdScore] =
    FunctionalDeps.scoreFds(TableProfile.of(d, pairs), pairs, maxGroups)

  private def scoreFd(d: DataFrame, maxGroups: Int = 500): FdScore = scoreFds(d, Seq("l" -> "r"), maxGroups).head

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

  // U+FFFD sorts before U+1F600 in Spark's UTF-8 byte order, after it in UTF-16.
  private val replacement = "\uFFFD"
  private val grin        = "\uD83D\uDE00"

  // The name predates the profile keeping every value; it is kept as the test's id.
  test("profileColumn caps the value list") {
    assert(profile("v").frequentValues == Seq(ValueCount("1", 3), ValueCount("2", 2), ValueCount("3", 1)))
    assert(profile.frequentValues("v", 2) == profile("v").frequentValues.take(2))
    // A count tie is broken by Spark's string order.
    val tied = Seq(grin, replacement, grin, replacement, "a").toDF("x")
    assert(TableProfile.of(tied)("x").frequentValues ==
      Seq(ValueCount(replacement, 2), ValueCount(grin, 2), ValueCount("a", 1)))
  }

  test("a count tie is broken in Spark's UTF-8 byte order") {
    // Prefixes, BMP characters above the surrogates, a surrogate pair and
    // lone surrogates, which Spark encodes as "?".
    val values = Seq("", "a", "ab", "b", "?", "@", "\u00e9", replacement, grin, grin + "a", "\uD800", "\uDC00x", "a\uD83D")
    for (a <- values; b <- values) {
      val expected = UTF8String.fromString(a).compareTo(UTF8String.fromString(b)).sign
      assert(ValueCount.ranked.compare(ValueCount(a, 1), ValueCount(b, 1)).sign == expected, s"${a.map(_.toInt)} vs ${b.map(_.toInt)}")
    }
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

  // The name predates the removal of `nullRate`; it is kept as the test's id.
  test("nullRate and uniqueRatio derive correctly") {
    assert(math.abs(profile("k").uniqueRatio - 2.0 / 6) < 1e-9)
  }

  test("every column is profiled") {
    assert(profile.columns.keySet == Set("k", "v", "w"))
  }

  /** The Spark jobs `body` starts and the shuffle exchanges its queries plan. */
  private def jobsAndExchanges(body: => Any): (Long, Long) = {
    val ((_, jobs), plans) = executedPlans(countingJobs(body))
    (jobs, collectNodes(plans) { case e: ShuffleExchangeExec => e }.size.toLong)
  }

  test("the profile is one job and one SQL execution, a task per partition") {
    assert(jobsAndExchanges(TableProfile.of(df)) == (1L, 0L))
    // Each input partition's task counts its own rows: none is coalesced.
    val d = spark.createDataFrame(spark.sparkContext.parallelize(Seq(("a", "1"), ("b", "2"), ("a", "1")), 3)).toDF("l", "r")
    val (((p, tasks), jobs), executions) = countingExecutions(countingJobs(countingTasks(TableProfile.of(d, Seq("l" -> "r")))))
    assert((jobs, executions, tasks) == (1L, 1L, 3L))
    assert(p("l").frequentValues == Seq(ValueCount("a", 2), ValueCount("b", 1)) && p.joint("l", "r")(("a", "1")) == 2L)
  }

  test("a DATE or BINARY column profiles with no numeric view") {
    val d = Seq(
      (Date.valueOf("2020-01-02"), Array[Byte](49), "1"),
      (Date.valueOf("2020-01-02"), Array[Byte](50), "x"),
      (null, null, "2"),
    ).toDF("day", "bytes", "s")
    val p = TableProfile.of(d)
    assert(p("day") == ColumnProfile(Map((null: String) -> 1L, "2020-01-02" -> 2L), None, None, 0.0))
    // Bytes "1" and "2" print as text that parses, but the column is binary.
    assert(p("bytes") == ColumnProfile(Map((null: String) -> 1L, "1" -> 1L, "2" -> 1L), None, None, 0.0))
    assert(p("s").minNumeric.contains(1.0) && p("s").maxNumeric.contains(2.0))
    for (c <- d.columns) {
      val ref = ReferenceProfiler.profileColumn(d, c)
      assert(p(c) == ref.profile && p(c).frequentValues == ref.ranked, c)
    }
  }

  test("a typed column's min and max are over its rows, not its texts") {
    // In New York's fall-back hour two instants print as the same local time:
    // one text, two numbers, in either partition order.
    val zone = spark.conf.get("spark.sql.session.timeZone")
    spark.conf.set("spark.sql.session.timeZone", "America/New_York")
    try {
      val edt = Timestamp.from(Instant.parse("2021-11-07T05:30:00Z"))
      val est = Timestamp.from(Instant.parse("2021-11-07T06:30:00Z"))
      for (rows <- Seq(Seq(edt, est), Seq(est, edt))) {
        val d = spark.createDataFrame(spark.sparkContext.parallelize(rows.map(Tuple1(_)), 2)).toDF("ts")
        val p = TableProfile.of(d)("ts")
        assert(p.frequentValues == Seq(ValueCount("2021-11-07 01:30:00", 2)))
        assert(p.minNumeric.contains(edt.getTime / 1000.0) && p.maxNumeric.contains(est.getTime / 1000.0))
      }
    } finally spark.conf.set("spark.sql.session.timeZone", zone)
  }

  test("an all-null column and an empty table profile to zero counts") {
    val nulls = Seq[(String, String)](("a", null), ("b", null)).toDF("x", "y")
    val y = TableProfile.of(nulls)("y")
    assert(y == ColumnProfile(Map((null: String) -> 2L), None, None, 0.0))
    assert((y.rowCount, y.nullCount, y.distinctCount, y.frequentValues) == (2L, 2L, 0L, Seq.empty))
    val empty = TableProfile.of(nulls.limit(0))
    assert(empty.rowCount == 0 && empty("x") == ColumnProfile(Map.empty, None, None, 0.0))
    assert((empty("x").rowCount, empty("x").nullCount, empty("x").distinctCount) == (0L, 0L, 0L))
  }

  test("a table with no profiled columns still counts its rows") {
    assert(TableProfile.of(df.select()).rowCount == 7)
  }

  test("duplicateRowCount counts beyond-first duplicates") {
    val d = Seq(("a", 1), ("a", 1), ("a", 1), ("b", 2)).toDF("x", "y")
    assert(Duplication.duplicateRowCount(d, TableProfile.of(d)) == 2)
    assert(Duplication.duplicateRowCount(d.distinct(), TableProfile.of(d.distinct())) == 0)
  }

  /** `duplicateRowCount` of `d` and the Spark jobs it starts, given the profile. */
  private def duplicates(d: DataFrame): (Long, Long) = {
    val p = TableProfile.of(d)
    countingJobs(Duplication.duplicateRowCount(d, p))
  }

  test("duplicateRowCount starts no job when an integral or string column is all distinct") {
    assert(duplicates(Seq((1L, "a"), (2L, "a"), (3L, "a")).toDF("id", "x")) == (0L, 0L))
    assert(duplicates(Seq((1, "a"), (2, "a")).toDF("id", "x")) == (0L, 0L))
    // One null is one more distinct row value.
    assert(duplicates(Seq[(String, Int)](("a", 1), (null, 1), ("b", 1)).toDF("s", "n")) == (0L, 0L))
  }

  test("duplicateRowCount counts duplicates no column rules out") {
    // 0.0 and -0.0 print apart but are equal under DISTINCT.
    val zeros = Seq((0.0, "a"), (-0.0, "a"), (1.0, "b"), (2.0, "c")).toDF("d", "x")
    assert(duplicates(zeros)._1 == 1)
    val twoNulls = Seq[(String, String)]((null, "x"), (null, "x"), ("a", "y")).toDF("s", "x")
    assert(duplicates(twoNulls)._1 == 1)
    val noneDistinct = Seq(("a", 1), ("a", 1), ("b", 1), ("b", 2)).toDF("x", "y")
    assert(duplicates(noneDistinct)._1 == 1)
  }

  test("duplicateRowCount's DISTINCT count starts one job") {
    val d = spark.createDataFrame(spark.sparkContext.parallelize(Seq(("a", 1), ("a", 1), ("b", 1), ("b", 2)), 4)).toDF("x", "y")
    val p = TableProfile.of(d)
    assert(jobsAndExchanges(Duplication.duplicateRowCount(d, p)) == (1L, 0L))
    assert(Duplication.duplicateRowCount(d, p) == 1)
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
    val fds = scoreFds(d, Seq("l" -> "r", "l" -> "s", "s" -> "l"), 10)
    assert(fds.map(f => (f.lhs, f.rhs)) == Seq("l" -> "r", "l" -> "s", "s" -> "l"))
    assert(fds.map(_.violatingGroups) == Seq(1L, 0L, 0L))
    assert(math.abs(fds.head.strength - 2.0 / 3) < 1e-9 && fds(1).strength == 1.0)
  }

  test("scoreFds starts no job: it scores from the pairs the profile counted") {
    val d = Seq(("a", "1", "x"), ("a", "2", "x"), ("b", "3", "y")).toDF("l", "r", "s")
    val pairs = Seq("l" -> "r", "l" -> "s", "s" -> "l", "r" -> "s")
    val p = TableProfile.of(d, pairs)
    // One table serves both directions of a pair, and every pair of its
    // columns: s's table holds l's and r's, which are not counted apart.
    assert(p.tables.keySet == Set(Seq("l", "r", "s")))
    assert(p.joint("s", "l") == Map(("x", "a") -> 2L, ("y", "b") -> 1L))
    val (fds, jobs) = countingJobs(FunctionalDeps.scoreFds(p, pairs, 10))
    assert(jobs == 0 && fds.size == 4)
  }

  test("scoreFds fails on a pair the profile did not count") {
    val d = Seq(("a", "1", "x")).toDF("l", "r", "s")
    val e = intercept[NoSuchElementException](FunctionalDeps.scoreFds(TableProfile.of(d, Seq("l" -> "r")), Seq("l" -> "s"), 10))
    assert(e.getMessage.contains("l and s"))
  }

  test("a counted table keeps its NULL cells, a pair's joint counts leave them out, and the columns stay as they were") {
    val d = Seq[(String, String)](("a", "1"), ("a", null), (null, "1"), (null, null), ("b", "2"), ("a", "1")).toDF("l", "r")
    val p = TableProfile.of(d, Seq("l" -> "r"))
    assert(p.tables == Map(Seq("l", "r") -> Map(
      Seq("a", "1") -> 2L, Seq("a", null) -> 1L, Seq(null, "1") -> 1L, Seq(null, null) -> 1L, Seq("b", "2") -> 1L)))
    assert(p.table(Seq("r", "l")).get(Seq("1", null)) == 1L)
    assert(p.joint("l", "r") == Map(("a", "1") -> 2L, ("b", "2") -> 1L))
    assert(p.columns == TableProfile.of(d).columns && p.rowCount == 6)
  }

  test("neither statistics query plans a window or a sort: one job, no exchange") {
    val d = Seq(("a", "1", "x"), ("a", "2", "x"), ("b", "3", "y")).toDF("l", "r", "s")
    for ((name, query) <- Seq[(String, () => Any)](
        "TableProfile.of"            -> (() => TableProfile.of(d)),
        "TableProfile.of with pairs" -> (() => TableProfile.of(d, Seq("l" -> "r", "s" -> "l", "r" -> "s"))),
      )) {
      val ((_, jobs), plans) = executedPlans(countingJobs(query()))
      assert(plans.size == 1, s"$name: ${plans.size} plans captured")
      val windows   = collectNodes(plans) { case w: WindowExec => w }.size
      val sorts     = collectNodes(plans) { case s: SortExec => s }.size
      val exchanges = collectNodes(plans) { case e: ShuffleExchangeExec => e }.size
      assert((jobs, exchanges, windows, sorts) == (1L, 0, 0, 0), s"$name: $jobs jobs, $exchanges exchanges, $windows windows, $sorts sorts")
    }
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
    val tied = Seq((grin, "1"), (grin, "2"), (replacement, "1"), (replacement, "2")).toDF("l", "r")
    assert(scoreFd(tied, maxGroups = 1).groups == Seq(replacement -> Seq(ValueCount("1", 1), ValueCount("2", 1))))
  }
}
