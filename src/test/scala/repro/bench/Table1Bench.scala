package repro.bench

import repro.SparkSpec
import repro.eval.{Harness, Scores}

/** Reproduces Table 1 and asserts its qualitative shape:
  *   - Cocoon has the best F1 on Hospital, Beers, Rayyan, Movies;
  *   - on Flights, Raha+Baran wins while Cocoon is high-precision /
  *     low-recall (the paper's benchmark-ambiguity discussion);
  *   - HoloClean ≈ 0 on Beers and Movies; CleanAgent ≈ 0 everywhere;
  *   - RetClean is only nonzero on Rayyan.
  * The cell counts of all 25 (system, dataset) pairs are pinned.
  * Paper-vs-measured numbers land in EXPERIMENTS.md.
  */
class Table1Bench extends SparkSpec {

  private def scores: Seq[Scores] = PaperGrid.table1

  private def get(system: String, dataset: String): Scores =
    scores.find(s => s.system == system && s.dataset == dataset).get
  private def f1(system: String, dataset: String): Double = get(system, dataset).f1

  test("the grid is complete: 5 systems × 5 datasets") {
    scores.foreach(s => info(s.row))
    assert(scores.size == 25)
  }

  for (((system, dataset), cells) <- PaperGrid.pinnedTable1)
    test(s"$system's cell counts on $dataset are pinned") {
      assert(PaperGrid.cells(get(system, dataset)) == cells)
    }

  test("Cocoon wins on 4 of 5 benchmarks (all but Flights)") {
    for (d <- Seq("hospital", "beers", "rayyan", "movies")) {
      val best = scores.filter(_.dataset == d).maxBy(_.f1)
      assert(best.system == "Cocoon", s"$d won by ${best.system}")
    }
  }

  test("Flights: Raha+Baran wins; Cocoon is high-precision, low-recall") {
    assert(f1("Raha+Baran", "flights") > f1("Cocoon", "flights"))
    val c = get("Cocoon", "flights")
    assert(c.precision > 0.8, c.row)
    assert(c.recall < 0.6, c.row)
    assert(c.precision - c.recall > 0.2, c.row)
  }

  test("Cocoon F1 is high where the paper reports wins") {
    assert(f1("Cocoon", "hospital") > 0.8)
    assert(f1("Cocoon", "beers") > 0.85)
    assert(f1("Cocoon", "rayyan") > 0.75)
    assert(f1("Cocoon", "movies") > 0.75)
  }

  test("HoloClean collapses on Beers and Movies") {
    assert(f1("HoloClean", "beers") < 0.2)
    assert(f1("HoloClean", "movies") < 0.05)
  }

  test("HoloClean keeps near-perfect precision on Hospital") {
    assert(get("HoloClean", "hospital").precision > 0.9)
  }

  test("CleanAgent scores zero on every benchmark") {
    for (d <- Harness.table1.datasets) assert(f1("CleanAgent", d) == 0.0, d)
  }

  test("RetClean performs only on Rayyan") {
    assert(f1("RetClean", "rayyan") > 0.2)
    for (d <- Seq("hospital", "flights", "beers", "movies"))
      assert(f1("RetClean", d) < 0.05, d)
  }

  test("Raha+Baran is a competent statistics-only baseline everywhere") {
    assert(f1("Raha+Baran", "hospital") > 0.5)
    assert(f1("Raha+Baran", "beers") > 0.8)
    assert(f1("Raha+Baran", "movies") > 0.6)
  }

  test("Beers: both Cocoon and Raha+Baran fix the unit inconsistency") {
    assert(f1("Cocoon", "beers") > 0.85 && f1("Raha+Baran", "beers") > 0.8)
  }
}
