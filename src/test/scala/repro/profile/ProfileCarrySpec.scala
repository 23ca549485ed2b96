package repro.profile

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{IntegerType, LongType, StringType, StructField, StructType}
import org.scalacheck.Gen
import repro.{Seeded, SparkSpec}
import repro.JobCounting.{countingExecutions, countingJobs}
import repro.bench.CocoonRuns
import repro.core._
import repro.eval.Harness
import repro.llm.SimulatedLLM

/** The profile [[ProfileCarry]] derives on the driver equals the one
  * [[TableProfile.of]] measures on the rewritten table, wherever the carry is
  * defined, its counted tables included, and deriving it starts no Spark job
  * and no SQL execution.
  *
  * Profiles are compared up to the sign of a zero minimum or maximum: with
  * both "-0" and "0" in a column, Spark's `min` keeps whichever it meets
  * first.
  */
class ProfileCarrySpec extends SparkSpec {

  private val schema = StructType(Seq(
    StructField("row_id", LongType, nullable = false),
    StructField("a", StringType),
    StructField("b", StringType),
    StructField("c", StringType),
    StructField("empty", StringType),
    StructField("qty", IntegerType),
  ))
  private val strings = Seq("a", "b", "c", "empty")

  /** The FD pairs whose tables the profiles count: b's table, which holds
    * c's, and one with an all-null column.
    */
  private val pairs = Seq("a" -> "b", "c" -> "b", "a" -> "c", "a" -> "empty")

  /** The tables [[TableProfile.of]] counts for `pairs`. */
  private val tables = Seq(Seq("a", "c", "b"), Seq("a", "empty"))

  // Numbers Spark and Scala parse differently, quotes, and a character
  // outside the Basic Multilingual Plane against U+FFFD, which sort one way
  // in UTF-8 and the other in UTF-16.
  private val pool = Seq[String](
    null, "NaN", "Infinity", "-Infinity", "-0", "0", "1e3", " 12 ", "12", "it's", "O'Brien",
    "😀", "�", "a", "ab", "",
  )
  private val nonNull = Gen.oneOf(pool.filter(_ != null))
  private val bound = Gen.option(Gen.oneOf(-1.0, 0.0, 12.0, 100.0, 1000.0))

  private val table: Gen[Seq[Row]] = for {
    n    <- Gen.chooseNum(0, 30)
    // A few values per column, so counts tie often, and NULL among them in
    // half the columns: `Gen.pick` at this seed never picks the pool's NULL.
    pools <- Gen.listOfN(3, Gen.pick(4, pool.filter(_ != null)).flatMap(p => Gen.oneOf(p, p :+ null)))
    rows <- Gen.listOfN(n, Gen.zip(Gen.oneOf(pools(0)), Gen.oneOf(pools(1)), Gen.oneOf(pools(2)), Gen.oneOf[Integer](null, 0, 7)))
  } yield rows.zipWithIndex.map { case ((a, b, c, q), k) => Row(k.toLong, a, b, c, null, q) }

  /** An FD repair of `rhs` over `rows`, its lhs one or two other columns of
    * a counted table holding `rhs`, in either role. Its arms are some of
    * each lhs's (lhs, rhs) values with neither side NULL; the table's other
    * rows, a side NULL or not, keep their `rhs`.
    */
  private def fdRepair(rows: Seq[Row], rhs: String): Gen[Rewrite] = for {
    table <- Gen.oneOf(tables.filter(_.contains(rhs)))
    lhs   <- Gen.atLeastOne(table.filter(_ != rhs))
    cases <- Gen.sequence[Seq[Seq[FdCase]], Seq[FdCase]](lhs.toSeq.map(fdCases(rows, _, rhs)))
  } yield FdRepair(cases.flatten)

  private def fdCases(rows: Seq[Row], lhs: String, rhs: String): Gen[Seq[FdCase]] = {
    val (li, ri) = (schema.fieldIndex(lhs), schema.fieldIndex(rhs))
    val joint = rows.filter(r => !r.isNullAt(li) && !r.isNullAt(ri)).map(r => (r.getString(li), r.getString(ri))).distinct.sorted
    for {
      arms    <- Gen.someOf(joint)
      targets <- Gen.listOfN(arms.size, nonNull)
    } yield arms.toSeq.zip(targets).map { case ((l, bad), t) => FdCase(lhs, l, bad, t) }
  }

  private def rewrite(rows: Seq[Row], col: String): Gen[Rewrite] = {
    val clamp = Gen.zip(bound, bound).map { case (lo, hi) => RangeClamp(lo, hi) }
    if (col == "qty") clamp
    else Gen.oneOf(
      // A value map's keys are distinct and it maps to no NULL. Half its
      // targets are one of two values, so that values often merge.
      Gen.listOf(Gen.zip(nonNull, Gen.oneOf(nonNull, Gen.oneOf("a", "12")))).map(m => MapValues(m.distinctBy(_._1))),
      Gen.someOf(pool.filter(_ != null)).map(vs => MapToNull(vs.toSeq)),
      clamp,
      fdRepair(rows, col),
    )
  }

  private def step(rows: Seq[Row]): Gen[CleaningStep] = for {
    strs     <- Gen.atLeastOne(strings)
    cols     <- Gen.frequency(4 -> Gen.const(strs.toSeq), 1 -> Gen.const(strs.toSeq :+ "qty"))
    rewrites <- Gen.sequence[Seq[Rewrite], Rewrite](cols.toSeq.map(rewrite(rows, _)))
  } yield CleaningStep("carry", cols.toSeq.zip(rewrites).map { case (c, rw) => ColumnRewrite(c, rw, "r") })

  private def canon(p: TableProfile) = {
    def bits(d: Option[Double]) = d.map(x => java.lang.Double.doubleToLongBits(x + 0.0)) // -0.0 + 0.0 is 0.0
    (p.rowCount, p.columns.view.mapValues(c =>
      (c.copy(minNumeric = None, maxNumeric = None), bits(c.minNumeric), bits(c.maxNumeric))).toMap, p.tables)
  }

  /** The carried profile, checked against a fresh one wherever it is
    * defined: its columns, and every table `before` counted for `pairs` but
    * those holding a column an FD repair rewrote, which it drops.
    */
  private def carryChecked(df: DataFrame, pairs: Seq[(String, String)], step: CleaningStep): Option[TableProfile] =
    carryChecked(df, TableProfile.of(df, pairs), pairs, step)

  private def carryChecked(df: DataFrame, before: TableProfile, pairs: Seq[(String, String)], step: CleaningStep): Option[TableProfile] = {
    val applied = CleaningStep.apply(df, step)
    val ((carried, jobs), executions) = countingExecutions(countingJobs(ProfileCarry.after(before, step, applied)))
    assert(jobs == 0, s"carrying ${step.issue} started $jobs Spark jobs")
    assert(executions == 0, s"carrying ${step.issue} started $executions SQL executions")
    carried.foreach { c =>
      val repaired = step.rewrites.collect { case ColumnRewrite(col, FdRepair(cases), _) if cases.nonEmpty => col }.toSet
      assert(c.tables.keySet == before.tables.keySet.filterNot(_.exists(repaired)), s"tables after $step")
      val rebuilt = TableProfile.of(applied, pairs)
      assert(canon(c) == canon(rebuilt.copy(tables = rebuilt.tables.filter(t => c.tables.contains(t._1)))), s"carried ≠ rebuilt after $step")
    }
    carried
  }

  test("the carried profile equals a fresh profile after random value maps and FD repairs") {
    val gen = for { rows <- table; s <- step(rows) } yield (rows, s)
    var carried = 0
    // Carried samples where a table's cell gained a NULL, and where two of a
    // table's cells merged into one.
    var nulled, merged = 0
    // Carried samples with an FD repair from two lhs columns, with one whose
    // lhs is not an FD lhs of its column in `pairs`, and with one over a table
    // where a row has a NULL side.
    var twoLhs, reversed, nullSide = 0
    Seeded.forAll(gen, n = 150) { case (rows, s) =>
      val df = spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
      val before = TableProfile.of(df, pairs)
      assert(before.tables.keySet == tables.toSet)
      val result = carryChecked(df, before, pairs, s)
      assert(result.isDefined == s.rewrites.forall(_.column != "qty"), s"carry defined = ${result.isDefined} for $s")
      result.foreach { after =>
        carried += 1
        val repairs = s.rewrites.collect { case ColumnRewrite(rhs, FdRepair(cases), _) if cases.nonEmpty => cases.map(c => (c.lhsCol, rhs)).distinct }
        if (repairs.exists(_.size > 1)) twoLhs += 1
        if (repairs.flatten.exists(p => !pairs.contains(p))) reversed += 1
        if (repairs.flatten.exists { case (l, r) => rows.exists(row => row.isNullAt(schema.fieldIndex(l)) || row.isNullAt(schema.fieldIndex(r))) })
          nullSide += 1
        def nulls(t: TableProfile.Table) = t.collect { case (vs, n) if vs.contains(null) => n }.sum
        val kept = after.tables.keys.toSeq
        if (kept.exists(t => nulls(after.tables(t)) > nulls(before.tables(t)))) nulled += 1
        if (kept.exists(t => after.tables(t).size < before.tables(t).size)) merged += 1
      }
    }
    info(s"$carried carried, $nulled nulled, $merged merged, $twoLhs from two lhs, $reversed reversed, $nullSide NULL side")
    assert(carried >= 30, s"only $carried of 150 samples carried")
    assert(nulled >= 5 && merged >= 5, s"only $nulled samples gave a table's cell a NULL and $merged merged cells")
    assert(twoLhs >= 5 && reversed >= 5 && nullSide >= 5,
      s"only $twoLhs samples repaired from two lhs, $reversed from a reversed pair and $nullSide over a NULL side")
  }

  test("pair counts carry through a value map, a DMV null and a boolean cast") {
    import spark.implicits._
    val df = Seq(
      (1L, "Boston", "yes", "MA"), (2L, "Bostn", "yes", "MA"), (3L, "Boston", "Y", "MA"),
      (4L, "N/A", "no", "CA"), (5L, "Reno", "no", null), (6L, "Reno", "n", "NV"),
    ).toDF("row_id", "city", "open", "state")
    val pairs = Seq("city" -> "state", "open" -> "city", "state" -> "open")
    val s = CleaningStep("s", Seq(
      ColumnRewrite("city", MapValues(Seq("Bostn" -> "Boston")), "typo"),
      ColumnRewrite("open", MapValues(Seq("yes" -> "True", "Y" -> "True", "no" -> "False", "n" -> "False")), "bool"),
    ))
    val carried = carryChecked(df, pairs, s).get
    // Bostn merged into Boston; "yes" and "Y" into "True".
    assert(carried.joint("city", "state") == Map(("Boston", "MA") -> 3L, ("N/A", "CA") -> 1L, ("Reno", "NV") -> 1L))
    assert(carried.joint("open", "city") == Map(("True", "Boston") -> 3L, ("False", "N/A") -> 1L, ("False", "Reno") -> 2L))
    val dmv = CleaningStep("dmv", Seq(ColumnRewrite("city", MapToNull(Seq("N/A")), "dmv")))
    val applied = CleaningStep.apply(df, s)
    val nulled = carryChecked(applied, carried, pairs, dmv).get
    // Row 4's city becomes NULL: the tables keep the row, and the joint counts leave it out.
    assert(nulled.table(Seq("city", "state")).get(Seq(null, "CA")) == 1L)
    assert(nulled.joint("city", "state") == Map(("Boston", "MA") -> 3L, ("Reno", "NV") -> 1L))
    assert(nulled.joint("open", "city") == Map(("True", "Boston") -> 3L, ("False", "Reno") -> 2L))
    assert(nulled.joint("state", "open") == carried.joint("state", "open"))
    // An FD repair drops the tables holding its column and keeps the others.
    val fd = CleaningStep("fd", Seq(ColumnRewrite("state", FdRepair(Seq(FdCase("city", "Reno", "NV", "CA"))), "fd")))
    val repaired = carryChecked(CleaningStep.apply(applied, dmv), nulled, pairs, fd).get
    assert(repaired.tables.keySet == Set(Seq("open", "city")))
  }

  test("the carry is undefined where it cannot be exact") {
    import spark.implicits._
    val df = Seq((1L, "z1", "x1", "AL", "Boston"), (2L, "z1", "x1", "AL", "Dothan"), (3L, "z2", "x2", "NV", "Reno"))
      .toDF("row_id", "zip", "phone", "state", "city")
    val p = TableProfile.of(df, Seq("zip" -> "city", "phone" -> "city"))
    def after(p: TableProfile, s: CleaningStep) = ProfileCarry.after(p, s, CleaningStep.apply(df, s))
    def step(rws: (String, Rewrite)*) = CleaningStep("s", rws.map { case (c, rw) => ColumnRewrite(c, rw, "r") })
    def carry(rws: (String, Rewrite)*) = after(p, step(rws: _*))

    assert(after(p, CleaningStep("dup", Seq.empty, DistinctRows("r"))).isEmpty)
    assert(after(p, CleaningStep("u", Seq.empty, KeepFirstPerKey("zip", "phone", None, "r"))).isEmpty)
    assert(carry("row_id" -> RangeClamp(Some(2.0), None)).isEmpty, "non-string column")
    val reno = step("city" -> MapToNull(Seq("Reno")))
    // A plan that is not the step's Project over the column is never guessed at.
    assert(ProfileCarry.after(p, reno, CleaningStep.apply(df, reno).filter("row_id > 0")).isEmpty, "not a Project")
    assert(ProfileCarry.after(p, reno, df.selectExpr("row_id", "zip", "phone", "state", "upper(zip) AS city")).isEmpty, "not from the column")
    assert(ProfileCarry.after(p, reno, df).isEmpty, "the input's own plan")
    // A repair from a pair the profile did not count; one from two lhs columns is carried.
    assert(carry("city" -> FdRepair(Seq(FdCase("state", "AL", "Boston", "Reno")))).isEmpty, "uncounted pair")
    assert(carry("city" -> FdRepair(Seq(FdCase("zip", "z1", "Boston", "Dothan"), FdCase("phone", "x1", "Boston", "Reno")))).isDefined)
    assert(carry("city" -> FdRepair(Seq(FdCase("zip", "z1", "Boston", "Dothan")))).isDefined)
    assert(carry("city" -> MapValues(Seq("Reno" -> "Dothan"))).isDefined)
  }

  for (name <- Harness.table1.datasets)
    test(s"replaying Cocoon's steps on $name, every carried profile equals a fresh one") {
      val run = CocoonRuns(name)
      import run.{ds, result}
      assert(result.steps.nonEmpty)
      val fdPairs = FunctionalDeps.meaningfulPairs(CleaningStep.stringColumns(ds.dirty, Set(ds.keyCol)), new SimulatedLLM())
      var df = ds.dirty
      val carried = result.steps.map { s =>
        val c = carryChecked(df, fdPairs, s)
        df = CleaningStep.apply(df, s).localCheckpoint()
        s.issue -> c.isDefined
      }
      if (Set("hospital", "flights")(name)) assert(carried.forall(_._2), s"$name steps not carried: $carried")
    }
}
