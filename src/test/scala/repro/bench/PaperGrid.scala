package repro.bench

import repro.SparkSpec
import repro.eval.{CocoonSystem, Harness, Scores}

/** The Table-1 and Table-3 grids of every system on every benchmark, computed
  * once per test run and shared by the suites that read them, and the cell
  * counts each (system, dataset) pair must produce. The baselines are run
  * here; Cocoon's scores are those of its measured runs in [[CocoonRuns]], so
  * a test run cleans each benchmark with Cocoon once.
  *
  * Everything is seeded and deterministic, so a count is an integer, not a
  * tolerance: a change that moves one changes what a system does.
  */
object PaperGrid {

  /** (changedCells, correctChanges, errorCells) of one system on one benchmark. */
  type Cells = (Long, Long, Long)

  def cells(s: Scores): Cells = (s.changedCells, s.correctChanges, s.errorCells)

  private lazy val grid = {
    val baselines = Harness.grid(SparkSpec.shared, Seq(Harness.table1, Harness.table3),
      Harness.allSystems().filterNot(_.isInstanceOf[CocoonSystem]))
    // Cocoon last in each dataset's rows, as `Harness.grid` orders systems.
    val cocoon = Seq[CocoonRuns.Run => Scores](_.table1, _.table3)
    val tables = Seq(Harness.table1, Harness.table3).lazyZip(baselines).lazyZip(cocoon).map { (t, scores, of) =>
      t.datasets.flatMap(d => scores.filter(_.dataset == d) :+ of(CocoonRuns(d)))
    }
    println("\n=== Table 1 (reproduced): P/R/F1, coltype & DMV excluded ===")
    println(Harness.formatTable(tables(0), Harness.table1.datasets))
    println("\n=== Table 3 (reproduced): P/R/F1 with coltype & DMV included ===")
    println(Harness.formatTable(tables(1), Harness.table3.datasets))
    tables
  }

  /** The Table-1 grid, dataset by dataset. */
  lazy val table1: Seq[Scores] = grid(0)

  /** The Table-3 grid, dataset by dataset. */
  lazy val table3: Seq[Scores] = grid(1)

  /** Counts under the Table-1 rules (column-type and DMV cells excluded), per
    * (system, dataset): all 25 cells of Table 1.
    */
  val pinnedTable1: Seq[((String, String), Cells)] = Seq(
    ("HoloClean", "hospital")  -> (370L, 362L, 524L),
    ("Raha+Baran", "hospital") -> (357L, 351L, 524L),
    ("CleanAgent", "hospital") -> (1000L, 0L, 524L),
    ("RetClean", "hospital")   -> (832L, 4L, 524L),
    ("Cocoon", "hospital")     -> (475L, 472L, 524L),
    ("HoloClean", "flights")   -> (602L, 557L, 1202L),
    ("Raha+Baran", "flights")  -> (1116L, 1064L, 1202L),
    ("CleanAgent", "flights")  -> (0L, 0L, 1202L),
    ("RetClean", "flights")    -> (588L, 0L, 1202L),
    ("Cocoon", "flights")      -> (488L, 393L, 1202L),
    ("HoloClean", "beers")     -> (118L, 40L, 700L),
    ("Raha+Baran", "beers")    -> (684L, 684L, 700L),
    ("CleanAgent", "beers")    -> (0L, 0L, 700L),
    ("RetClean", "beers")      -> (2832L, 0L, 700L),
    ("Cocoon", "beers")        -> (700L, 700L, 700L),
    ("HoloClean", "rayyan")    -> (150L, 150L, 880L),
    ("Raha+Baran", "rayyan")   -> (290L, 290L, 880L),
    ("CleanAgent", "rayyan")   -> (880L, 0L, 880L),
    ("RetClean", "rayyan")     -> (902L, 289L, 880L),
    ("Cocoon", "rayyan")       -> (800L, 800L, 880L),
    ("HoloClean", "movies")    -> (14L, 0L, 1122L),
    ("Raha+Baran", "movies")   -> (1020L, 919L, 1122L),
    ("CleanAgent", "movies")   -> (0L, 0L, 1122L),
    ("RetClean", "movies")     -> (1195L, 0L, 1122L),
    ("Cocoon", "movies")       -> (1206L, 1105L, 1122L),
  )

  /** Counts under the Table-3 rules (nothing excluded), per (system,
    * dataset): all 10 cells of Table 3, then Cocoon on the three benchmarks
    * Table 3 does not cover, which `GoldenGridSpec` pins under both rules.
    */
  val pinnedTable3: Seq[((String, String), Cells)] = Seq(
    ("HoloClean", "hospital")  -> (370L, 362L, 3751L),
    ("Raha+Baran", "hospital") -> (2802L, 2796L, 3751L),
    ("CleanAgent", "hospital") -> (1000L, 0L, 3751L),
    ("RetClean", "hospital")   -> (832L, 4L, 3751L),
    ("Cocoon", "hospital")     -> (3702L, 3699L, 3751L),
    ("HoloClean", "movies")    -> (14L, 0L, 16033L),
    ("Raha+Baran", "movies")   -> (8856L, 8755L, 16033L),
    ("CleanAgent", "movies")   -> (0L, 0L, 16033L),
    ("RetClean", "movies")     -> (1195L, 0L, 16033L),
    ("Cocoon", "movies")       -> (16117L, 16016L, 16033L),
    ("Cocoon", "flights")      -> (488L, 393L, 1202L),
    ("Cocoon", "beers")        -> (880L, 880L, 880L),
    ("Cocoon", "rayyan")       -> (900L, 900L, 980L),
  )
}
