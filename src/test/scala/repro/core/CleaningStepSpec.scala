package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.debug.codegenStringSeq
import repro.{CodegenFallbacks, Oracle, SparkSpec}
import repro.util.SqlGen.Dialect

class CleaningStepSpec extends SparkSpec {
  import spark.implicits._

  private lazy val df = Seq(
    (1L, "eng", "N/A", "34"), (2L, "English", "12", "210"), (3L, "fre", "15", "-3"), (4L, "French", "99", "57"),
  ).toDF("row_id", "lang", "score", "age")

  /** Over `in`, the applied step, its SELECT on Spark and its SELECT in
    * DuckDB's dialect on the oracle give the same rows.
    */
  private def assertPortable(in: DataFrame, step: CleaningStep) = {
    val applied = CleaningStep.apply(in, step)
    in.createOrReplaceTempView("input")
    try {
      val rendered = spark.sql(CleaningStep.renderSelect(step, in.columns.toSeq, "input", Dialect.Spark))
      assert(rendered.columns.toSeq == applied.columns.toSeq)
      assert(applied.exceptAll(rendered).isEmpty, s"${step.issue}: rows applied but not in the rendered SELECT's output")
      assert(rendered.exceptAll(applied).isEmpty, s"${step.issue}: rows of the rendered SELECT's output not applied")
    } finally spark.catalog.dropTempView("input")
    Oracle.assertEquivalent(applied, CleaningStep.renderSelect(step, in.columns.toSeq, "input", Dialect.DuckDb), "input" -> in)
    applied
  }

  test("renderExpr MapValues produces a map lookup in each dialect") {
    val rw = MapValues(Seq("English" -> "eng"))
    assert(CleaningStep.renderExpr("lang", rw, Dialect.Spark) == "COALESCE(element_at(map('English', 'eng'), `lang`), `lang`)")
    assert(CleaningStep.renderExpr("lang", rw, Dialect.DuckDb) == "COALESCE(element_at(MAP {'English': 'eng'}, \"lang\")[1], \"lang\")")
  }

  test("renderExpr FdRepair guards on both lhs and rhs") {
    val rw = FdRepair(Seq(FdCase("zip", "36000", "Boston", "Dothan"), FdCase("zip", "36000", "Bostn", "Dothan")))
    assert(CleaningStep.renderExpr("city", rw, Dialect.Spark) ==
      "COALESCE(element_at(element_at(map('36000', map('Boston', 'Dothan', 'Bostn', 'Dothan')), `zip`), `city`), `city`)")
    assert(CleaningStep.renderExpr("city", rw, Dialect.DuckDb) ==
      "COALESCE(element_at(element_at(MAP {'36000': MAP {'Boston': 'Dothan', 'Bostn': 'Dothan'}}, \"zip\")[1], \"city\")[1], \"city\")")
  }

  test("renderExpr FdRepair renders one nested lookup per lhs column, in arm order") {
    val rw = FdRepair(Seq(FdCase("state", "AL", "Boston", "Mobile"), FdCase("zip", "z1", "Boston", "Dothan")))
    assert(CleaningStep.renderExpr("city", rw, Dialect.Spark) ==
      "COALESCE(element_at(element_at(map('AL', map('Boston', 'Mobile')), `state`), `city`), " +
      "element_at(element_at(map('z1', map('Boston', 'Dothan')), `zip`), `city`), `city`)")
  }

  test("MapValues rejects a NULL key or target, and a key twice") {
    intercept[IllegalArgumentException](MapValues(Seq("bad" -> null)))
    intercept[IllegalArgumentException](MapValues(Seq((null, "good"))))
    intercept[IllegalArgumentException](MapValues(Seq("bad" -> "good", "bad" -> "other")))
  }

  test("FdRepair picks the arm of the first lhs column that matches, on Spark and DuckDB") {
    // Row 1 matches a `state` arm and a `zip` arm: `state` sorts first and
    // wins. Rows 2 and 3 have a NULL lhs value, so only the other column's
    // arms can match them. Row 4's lhs value and target hold a quote. Row 5
    // matches an lhs value but none of its bad values.
    val fdf = Seq[(Long, String, String, String)](
      (1L, "z1", "AL", "Boston"), (2L, "z1", null, "Boston"), (3L, null, "AL", "O'Hare"),
      (4L, "z'2", "NV", "Reno"), (5L, "z1", "NV", "Dothan"), (6L, null, null, null),
    ).toDF("row_id", "zip", "state", "city")
    val arms = Seq(
      FdCase("state", "AL", "Boston", "Mobile"), FdCase("state", "AL", "O'Hare", "Mobile"),
      FdCase("zip", "z'2", "Reno", "Coeur d'Alene"), FdCase("zip", "z1", "Boston", "Dothan"),
    )
    val out = assertPortable(fdf, CleaningStep("fd", Seq(ColumnRewrite("city", FdRepair(arms), "r"))))
    val cities = out.select("row_id", "city").as[(Long, String)].collect().toMap
    assert(cities == Map(1L -> "Mobile", 2L -> "Dothan", 3L -> "Mobile", 4L -> "Coeur d'Alene", 5L -> "Dothan", 6L -> null))
  }

  test("renderExpr FdRepair with no cases is the bare column") {
    assert(CleaningStep.renderExpr("c", FdRepair(Seq.empty), Dialect.Spark) == "`c`")
  }

  test("renderSelect passes through untouched columns and comments rewrites") {
    val step = CleaningStep("string-outliers", Seq(ColumnRewrite("lang", MapValues(Seq("English" -> "eng")), "why")))
    val sql = CleaningStep.renderSelect(step, Seq("row_id", "lang", "score"), "t", Dialect.Spark)
    assert(sql.contains("-- lang: why") && sql.contains("`row_id`") && sql.contains("AS `lang`"))
  }

  test("apply executes the generated SQL and rewrites values") {
    val step = CleaningStep("s", Seq(ColumnRewrite("lang", MapValues(Seq("English" -> "eng", "French" -> "fre")), "r")))
    val out = CleaningStep.apply(df, step)
    val langs = out.select("lang").as[String].collect().toSet
    assert(langs == Set("eng", "fre"))
  }

  test("apply MapToNull nulls DMV tokens") {
    val step = CleaningStep("dmv", Seq(ColumnRewrite("score", MapToNull(Seq("N/A")), "r")))
    val out = CleaningStep.apply(df, step)
    assert(out.filter("score IS NULL").count() == 1)
  }

  test("apply RangeClamp nulls out-of-range values") {
    val step = CleaningStep("num", Seq(ColumnRewrite("score", RangeClamp(None, Some(50)), "r")))
    val out = CleaningStep.apply(df, step)
    // "99" clamped to NULL; "N/A" is not numeric, TRY_CAST yields NULL which
    // fails the predicate, so the token survives for the DMV stage.
    assert(out.filter("score IS NULL").count() == 1)
    assert(out.filter("score = 'N/A'").count() == 1)
  }

  test("apply on a noop step returns the input unchanged") {
    val out = CleaningStep.apply(df, CleaningStep("noop", Seq.empty))
    assert(out eq df)
  }

  test("DistinctRows dedupes rows") {
    val dup = Seq(("a", "1"), ("a", "1"), ("b", "2")).toDF("x", "y")
    val out = CleaningStep.apply(dup, CleaningStep("dup", Seq.empty, DistinctRows("r")))
    assert(out.count() == 2)
  }

  test("renderSelect comments a row action's reasoning") {
    val step = CleaningStep("uniqueness", Seq.empty, KeepFirstPerKey("k", "t", Some("row_id"), "why"))
    val sql = CleaningStep.renderSelect(step, Seq("row_id", "k", "t"), "t0", Dialect.Spark)
    assert(sql.startsWith("-- why\n") && sql.contains("ORDER BY `t` DESC NULLS LAST, `row_id`"))
  }

  test("generated SQL is portable: Spark and DuckDB agree on a MapValues step") {
    assertPortable(df, CleaningStep("s", Seq(ColumnRewrite("lang", MapValues(Seq("English" -> "eng", "French" -> "fre")), "r"))))
  }

  test("generated SQL is portable: FdRepair step") {
    val fdf = Seq((1L, "z1", "Boston"), (2L, "z1", "Dothan"), (3L, "z2", "Reno")).toDF("row_id", "zip", "city")
    val step = CleaningStep("fd", Seq(ColumnRewrite("city", FdRepair(Seq(FdCase("zip", "z1", "Boston", "Dothan"))), "r")))
    assert(assertPortable(fdf, step).filter("city = 'Boston'").count() == 0)
  }

  test("generated SQL is portable: MapToNull and RangeClamp steps") {
    val step = CleaningStep("x", Seq(
      ColumnRewrite("score", MapToNull(Seq("N/A")), "dmv"),
      ColumnRewrite("age", RangeClamp(Some(0), Some(120)), "range"),
    ))
    val out = assertPortable(df, step)
    assert(out.filter("score IS NULL").count() == 1)
    assert(out.filter("age IS NULL").select("row_id").as[Long].collect().sorted.toSeq == Seq(2L, 3L))
  }

  test("generated SQL is portable: DISTINCT step") {
    val dup = Seq(("a", "1"), ("a", "1"), ("b", "2"), ("b", null), ("b", null)).toDF("x", "y")
    val out = assertPortable(dup, CleaningStep("dup", Seq(ColumnRewrite("x", MapValues(Seq("b" -> "a")), "r")), DistinctRows("r")))
    assert(out.count() == 3)
  }

  test("generated SQL is portable: keep-first-per-key step, ties broken by the row key") {
    // Key k1's two latest rows tie on `t`; only the row key picks row 2. Key
    // k4's rows tie too, and only the numeric order of row keys 9 and 10
    // picks row 9. A NULL `t` sorts last. A column is named `__rn`, the
    // name the row number takes when no column has it.
    val keyed = Seq(
      (3L, "k1", "2020-02", "tied-high"), (2L, "k1", "2020-02", "tied-low"), (1L, "k1", "2020-01", "older"),
      (4L, "k2", null, "undated"), (5L, "k2", "2019-12", "dated"), (6L, "k3", "2020-03", "alone"),
      (10L, "k4", "2020-04", "tied-ten"), (9L, "k4", "2020-04", "tied-nine"),
    ).toDF("row_id", "k", "t", "payload").selectExpr("*", "row_id % 3 AS __rn")
    val step = CleaningStep("uniqueness", Seq.empty, KeepFirstPerKey("k", "t", Some("row_id"), "r"))
    val out = assertPortable(keyed, step)
    assert(out.select("payload").as[String].collect().sorted.toSeq == Seq("alone", "dated", "tied-low", "tied-nine"))
  }

  test("generated SQL is portable: quoted values, an awkward column name, NULL cells and unmatched values") {
    // The rewritten column's name holds a backtick, a double quote and a
    // space; so does the FD's lhs column. Values and targets hold quotes.
    val city = "ci`ty \"name\""
    val zip  = "z`ip \"code\""
    val in = Seq[(Long, String, String)](
      (1L, "z1", "O'Hare"), (2L, "z1", "Bostn"), (3L, null, "Bostn"), (4L, "z2", "Reno"),
      (5L, "z2", null), (6L, null, null), (7L, "z1", "Dothan"), (8L, "z3", "Renno"),
    ).toDF("row_id", zip, city)
    val step = CleaningStep("s", Seq(
      ColumnRewrite(city, MapValues(Seq("O'Hare" -> "Chicago O'Hare", "Renno" -> "Reno")), "typos"),
      ColumnRewrite(zip, MapValues(Seq("z2" -> "z'2")), "pattern"),
    ))
    val fd = CleaningStep("fd", Seq(ColumnRewrite(city, FdRepair(Seq(
      FdCase(zip, "z1", "Bostn", "Boston"), FdCase(zip, "z'2", "Reno", "Coeur d'Alene"),
    )), "fd")))
    val out = assertPortable(assertPortable(in, step), fd)
    val cities = out.select($"row_id", out(s"`${city.replace("`", "``")}`")).as[(Long, String)].collect().toMap
    assert(cities == Map(
      1L -> "Chicago O'Hare", 2L -> "Boston", 3L -> "Bostn", 4L -> "Coeur d'Alene",
      5L -> null, 6L -> null, 7L -> "Dothan", 8L -> "Reno",
    ))
  }

  test("every rewrite and row action gives the same rows applied, rendered for Spark and rendered for DuckDB") {
    // Column names hold a backtick, a dot and a space, and one is `__rn`,
    // the row number's first choice of name. Values hold a quote, the empty
    // string, `%` and a character outside the Basic Multilingual Plane.
    val (city, zip, state, smile) = ("ci`ty", "zip.code", "st ate", "\uD83D\uDE00")
    // Row 7 is there twice.
    val in = Seq[(Long, String, String, String, String)](
      (1L, "Bostn", "z1", "AL", "3"), (2L, "'", "z1", "", "12"), (3L, "", "z.2", "%", "-1"), (4L, smile, "z.2", "AL", smile),
      (5L, "Reno", "", "'", ""), (6L, null, "z1", null, "'"), (7L, "Bostn", "z1", "AL", "3"), (7L, "Bostn", "z1", "AL", "3"),
      (8L, "Boston", null, "AL", null),
    ).toDF("row_id", city, zip, state, "__rn")
    val rewrites = Seq(
      ColumnRewrite(zip, MapValues(Seq("z.2" -> "z'2", "" -> smile, "z1" -> "%")), "map"),
      ColumnRewrite(state, MapToNull(Seq("", "%", "'")), "dmv"),
      ColumnRewrite("__rn", RangeClamp(Some(0), Some(10)), "range"),
      ColumnRewrite(city, FdRepair(Seq(
        FdCase(state, "AL", "Bostn", "Boston"), FdCase(state, "AL", smile, "'"),
        FdCase(zip, "z1", "'", ""), FdCase(zip, "z.2", "", smile), FdCase(zip, "z1", "Bostn", "Bostonia"),
      )), "fd"),
    )
    val steps = Seq(
      CleaningStep("rewrites", rewrites),
      CleaningStep("distinct", Seq.empty, DistinctRows("r")),
      CleaningStep("rewrites-distinct", rewrites, DistinctRows("r")),
      CleaningStep("keep-first", rewrites.take(1), KeepFirstPerKey(city, zip, Some("row_id"), "r")),
      CleaningStep("keep-first-nulls-last", Seq.empty, KeepFirstPerKey(state, zip, Some("row_id"), "r")),
      CleaningStep("keep-first-by-key", Seq.empty, KeepFirstPerKey(state, "row_id", Some("row_id"), "r")),
    )
    for (step <- steps) assertPortable(in, step)
    val fixed = CleaningStep.apply(in, steps.head).as[(Long, String, String, String, String)]
    // The FD repair reads the input's lhs values, `state` before `zip`: rows
    // 1 and 7 match a `Bostn` arm of each and take the `state` arm's target.
    // A value the clamp cannot read as a number stays.
    assert(fixed.collect().sortBy(_._1).toSeq == Seq(
      (1L, "Boston", "%", "AL", "3"), (2L, "", "%", null, null), (3L, smile, "z'2", null, null), (4L, "'", "z'2", "AL", smile),
      (5L, "Reno", smile, null, ""), (6L, null, "%", null, "'"), (7L, "Boston", "%", "AL", "3"), (7L, "Boston", "%", "AL", "3"),
      (8L, "Boston", null, "AL", null),
    ))
  }

  /** The largest method whole-stage codegen generates for `step` over `in`. */
  private def maxMethodCodeSize(in: DataFrame, step: CleaningStep): Int = {
    val (stats, fallbacks) = CodegenFallbacks.counting {
      val out = CleaningStep.apply(in, step)
      out.collect()
      codegenStringSeq(out.queryExecution.executedPlan).map(_._3)
    }
    assert(stats.nonEmpty && fallbacks == 0)
    stats.map(_.maxMethodCodeSize).max
  }

  test("the largest generated method does not grow with a value map's or an FD repair's arm count") {
    val in = spark.range(2000).selectExpr("CAST(id % 7 AS STRING) AS lhs", "CAST(id AS STRING) AS c")
    def mapped(arms: Int) =
      CleaningStep("s", Seq(ColumnRewrite("c", MapValues((0 until arms).map(i => s"$i" -> s"v$i")), "r")))
    def repaired(arms: Int) =
      CleaningStep("fd", Seq(ColumnRewrite("c", FdRepair((0 until arms).map(i => FdCase("lhs", s"${i % 7}", s"$i", s"v$i"))), "r")))
    for ((kind, step) <- Seq("value map" -> mapped _, "FD repair" -> repaired _)) {
      val (small, large) = (maxMethodCodeSize(in, step(10)), maxMethodCodeSize(in, step(1000)))
      info(s"$kind: largest method $small bytes at 10 arms, $large at 1,000")
      assert(large <= small, s"$kind: the largest generated method grew from $small bytes at 10 arms to $large at 1,000")
    }
  }
}
