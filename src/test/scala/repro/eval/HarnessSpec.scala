package repro.eval

import repro.SparkSpec
import repro.bench.PaperGrid

class HarnessSpec extends SparkSpec {

  test("all five systems are registered") {
    assert(Harness.allSystems().map(_.name).toSet ==
      Set("HoloClean", "Raha+Baran", "CleanAgent", "RetClean", "Cocoon"))
  }

  test("dataset factory knows all five benchmarks") {
    for (name <- Harness.table1.datasets) {
      val ds = Harness.dataset(spark, name)
      assert(ds.name == name && ds.dirty.count() > 0)
    }
  }

  test("unknown benchmark names are rejected") {
    intercept[IllegalArgumentException](Harness.dataset(spark, "nope"))
  }

  test("grid produces bounded scores") {
    for (s <- PaperGrid.table1 ++ PaperGrid.table3)
      assert(s.precision >= 0 && s.precision <= 1 && s.recall >= 0 && s.recall <= 1, s.row)
  }

  test("formatTable renders one row per system") {
    val scores = Seq(
      Scores("Cocoon", "beers", 0.9, 0.8, 0.85, 1, 1, 1),
      Scores("HoloClean", "beers", 0.1, 0.1, 0.1, 1, 1, 1),
    )
    val t = Harness.formatTable(scores, Seq("beers"))
    assert(t.contains("Cocoon") && t.contains("HoloClean") && t.contains("0.85"))
  }
}
